// Clang thread-safety capability annotations, no-op on every other compiler.
//
// These macros make the locking rules written in DESIGN.md ("Threading &
// determinism model") machine-checked: a field tagged PHOTODTN_GUARDED_BY(mu)
// can only be touched while `mu` is held, a function tagged
// PHOTODTN_REQUIRES(mu) can only be called with `mu` held, and the analysis
// runs at compile time with zero runtime cost. Enforcement is opt-in through
// the `analysis` CMake preset / PHOTODTN_ANALYSIS=ON, which turns
// -Wthread-safety -Wthread-safety-beta into errors (Clang only; see the CI
// `analysis` job). GCC and MSVC see empty macros and compile the exact same
// code.
//
// The annotated primitives that go with these macros live in util/sync.h
// (Mutex, MutexLock); std::mutex itself carries no capability
// attributes under libstdc++, so annotated code must use those wrappers.
// CONTRIBUTING.md ("Annotating a new mutex") shows the recipe.
#pragma once

#if defined(__clang__) && (!defined(SWIG))
#define PHOTODTN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PHOTODTN_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Tags a type as a capability ("mutex"): something that can be acquired,
/// held, and released, and that other annotations can reference.
#define PHOTODTN_CAPABILITY(x) PHOTODTN_THREAD_ANNOTATION(capability(x))

/// Tags a RAII type whose constructor acquires and destructor releases a
/// capability (util/sync.h MutexLock).
#define PHOTODTN_SCOPED_CAPABILITY PHOTODTN_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written while holding the given capability.
#define PHOTODTN_GUARDED_BY(x) PHOTODTN_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the *pointee* may only be touched while holding the
/// capability (the pointer itself is unguarded).
#define PHOTODTN_PT_GUARDED_BY(x) PHOTODTN_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the capability to be held on entry and exit.
#define PHOTODTN_REQUIRES(...) \
  PHOTODTN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function must NOT be called with the capability held (deadlock guard).
#define PHOTODTN_EXCLUDES(...) \
  PHOTODTN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (held on exit, not on entry).
#define PHOTODTN_ACQUIRE(...) \
  PHOTODTN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on exit).
#define PHOTODTN_RELEASE(...) \
  PHOTODTN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function conditionally acquires: holds the capability iff it returned
/// the given value.
#define PHOTODTN_TRY_ACQUIRE(...) \
  PHOTODTN_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Declares acquisition order between two capabilities (deadlock freedom).
#define PHOTODTN_ACQUIRED_BEFORE(...) \
  PHOTODTN_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define PHOTODTN_ACQUIRED_AFTER(...) \
  PHOTODTN_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Returns a reference to the given capability (accessor functions).
#define PHOTODTN_RETURN_CAPABILITY(x) \
  PHOTODTN_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function body is deliberately outside the analysis.
/// Every use needs a comment explaining why the access is safe anyway.
#define PHOTODTN_NO_THREAD_SAFETY_ANALYSIS \
  PHOTODTN_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Runtime assertion to the analysis that the capability is already held
/// (e.g. on a code path the analysis cannot follow).
#define PHOTODTN_ASSERT_CAPABILITY(x) \
  PHOTODTN_THREAD_ANNOTATION(assert_capability(x))
