// Annotated synchronization primitives: std::mutex with Clang thread-safety
// capability attributes attached (see util/thread_annotations.h). libstdc++'s
// std::mutex carries no capability attributes, so code that wants the static
// analysis must hold its state behind these wrappers; under
// PHOTODTN_ANALYSIS=ON (Clang) any access to a PHOTODTN_GUARDED_BY field
// without the lock held is a compile error.
//
// Zero-overhead by construction: Mutex is exactly a std::mutex, MutexLock is
// exactly a lock_guard-shaped RAII scope. The run fan-out's chunk claims and
// lane loan (util/thread_pool.{h,cpp}) are the only guarded state in the
// library.
#pragma once

#include <mutex>

#include "util/thread_annotations.h"

namespace photodtn {

/// A std::mutex the thread-safety analysis can reason about.
class PHOTODTN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PHOTODTN_ACQUIRE() { mu_.lock(); }
  void unlock() PHOTODTN_RELEASE() { mu_.unlock(); }
  bool try_lock() PHOTODTN_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock scope over Mutex (lock_guard with capability annotations).
class PHOTODTN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PHOTODTN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PHOTODTN_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace photodtn
