#!/usr/bin/env python3
"""Paper-scale benchmark of the photodtn simulator.

Runs one workload and prints every metric by name and unit; the last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload mit-ourscheme --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test          # tiny tier, runs in seconds
    python3 perfbench/run.py --record-digests     # rewrite perfbench/digests.json

--trace 0 times the library's entry points and reports the end-to-end
metrics; --trace 1 runs the traced replica and reports the per-layer
metrics. BENCHMARK.json names both sets; WHERE_TIME_GOES.md explains them.
The driver is built from source into .bench_build/ on first use.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The default seed and the held-out seed later claims are re-checked on.
# Every run re-checks both at the tiny tier (the canary).
RECORDED_SEEDS = [1, 97]
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def load_spec():
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)


def workload_names():
    return [w["name"] for w in load_spec()["workloads"]]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.h")):
        fail(f"library sources not found under {ROOT}/src", 1)
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed", 1)
    r = subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                        "-j", str(nproc())], stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed", 1)


def cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0] and not line.startswith("//"):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def driver_env():
    env = dict(os.environ)
    env["PHOTODTN_THREADS"] = str(min(nproc(), 4))
    return env


def run_driver(args, env, result_line=False):
    """Runs the driver and returns its JSON. When it fails (an execution
    threw, or it timed out) and `result_line` is set, the failure is still
    reported as a failed attempt in the result line before exiting."""
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        r = subprocess.run([DRIVER, "--scratch", SCRATCH] + args, env=env,
                           capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
        why = None if r.returncode == 0 else "driver failed"
        if why:
            sys.stderr.write(r.stderr)
    except subprocess.TimeoutExpired:
        why = f"driver timed out after {DRIVER_TIMEOUT_S}s"
    if why:
        if result_line:
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        fail(why, 1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def fingerprint(result, env):
    cache = cmake_cache()
    build_info = result["build"]
    fp = {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "compiler": f'{cache.get("CMAKE_CXX_COMPILER", "?")} {build_info["compiler"]}',
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "pool_lanes": build_info["pool_lanes"],
        "git_sha": git_sha(),
        "env": {k: v for k, v in sorted(env.items()) if k.startswith("PHOTODTN_")},
    }
    instrumented = (build_info["audit"] or build_info["sanitized"] or not build_info["ndebug"]
                    or cache.get("PHOTODTN_SANITIZE", "") not in ("", "OFF")
                    or cache.get("PHOTODTN_AUDIT_INVARIANTS", "OFF") not in ("OFF", "0", "FALSE"))
    if instrumented:
        fail("refusing to time an audit, sanitizer or assert-enabled build: " + json.dumps(fp))
    return fp


def load_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def check(recorded, got, what, problems):
    """Compares one run's digests with the recorded ones; True when they match."""
    if recorded is None:
        return True
    if recorded != got:
        problems.append(f"{what}: digests {got} != recorded {recorded}")
        return False
    return True


def canary_checks(workload, result, digests, problems):
    failed = 0
    for c in result["canary"]:
        rec = digests.get("tiny", {}).get(workload, {}).get(str(c["seed"]))
        if rec is None:
            problems.append(f"no recorded tiny digest for {workload} seed {c['seed']}")
            failed += 1
        elif not check(rec, c["digests"], f"canary seed {c['seed']}", problems):
            failed += 1
    return len(result["canary"]), failed


def e2e(args, result, digests, problems):
    attempted, failed = canary_checks(args.workload, result, digests, problems)
    iters = result["iterations"]
    recorded = digests.get("bench", {}).get(args.workload, {}).get(str(args.seed))
    reference = recorded if recorded is not None else iters[0]["digests"]
    for i, it in enumerate(iters):
        attempted += 1
        if not check(reference, it["digests"], f"iteration {i}", problems):
            failed += 1
    wall = statistics.median(it["wall_s"] for it in iters)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(result["setup_s"]),
        "events_per_s": result["events"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"{len(iters)} executions, {len(result['setup_s'])} set-up samples")
    return attempted, failed, metrics


def traced(args, result, digests, problems):
    attempted, failed = canary_checks(args.workload, result, digests, problems)
    attempted += result["pairs"]
    recorded = digests.get("bench", {}).get(args.workload, {}).get(str(args.seed))
    if not result["replica_matches_entry"]:
        problems.append("traced replica output differs from the entry point's")
        failed += result["pairs"]
    elif not check(recorded, result["digests"], "entry point", problems):
        failed += result["pairs"]
    layers = result["layers"]
    if layers["unattributed_frac"] > 0.05:
        problems.append(f"only {1 - layers['unattributed_frac']:.1%} of the traced wall time "
                        "is attributed to named layers (want >= 95%)")
    return attempted, failed, layers


def report(metrics, units, fp, attempted, failed, problems):
    print("host " + json.dumps(fp, sort_keys=True))
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>16.6g}  {units[name]}")
    print(f"  {'fail_frac':<{width}}  {failed / attempted:>16.6g}  ({failed}/{attempted})")
    for p in problems:
        print(f"  FAIL {p}")


def measure(args):
    env = driver_env()
    result = run_driver(["--mode", "trace" if args.trace else "e2e", "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--canary-seeds", ",".join(map(str, RECORDED_SEEDS))], env,
                        result_line=True)
    fp = fingerprint(result, env)
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = []
    run = traced if args.trace else e2e
    attempted, failed, values = run(args, result, load_digests(), problems)
    metrics = {m["name"]: values[m["name"]] for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    if args.trace:
        print(f"spans: {result['spans_file']}")
    report(metrics, units, fp, attempted, failed, problems)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0 if correct else 1


def self_test():
    result = run_driver(["--mode", "self-test",
                         "--canary-seeds", ",".join(map(str, RECORDED_SEEDS))],
                        driver_env())
    problems = list(result["failures"])
    tiny = load_digests().get("tiny", {})
    for w in result["workloads"]:
        check(tiny.get(w["workload"], {}).get(str(w["seed"]), {}), w["digests"],
              f"{w['workload']} seed {w['seed']}", problems)
        print(f"  {w['workload']:<24} seed {w['seed']:<4} "
              f"unattributed {w['unattributed_frac']:.2%}")
    for p in problems:
        print(f"  FAIL {p}")
    print("self-test " + ("passed" if not problems else "FAILED"))
    return 0 if not problems else 1


def record_digests():
    out = {"tiny": {}, "bench": {}}
    for tier in out:
        for w in workload_names():
            for seed in RECORDED_SEEDS:
                r = run_driver(["--mode", "digest", "--workload", w, "--seed", str(seed),
                                "--tier", tier], driver_env())
                out[tier].setdefault(w, {})[str(seed)] = r["digests"]
                print(f"  {tier:<5} {w:<24} seed {seed}: {r['digests']}")
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workload_names())
    p.add_argument("--seed", type=int, default=RECORDED_SEEDS[0])
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()
    if not (args.self_test or args.record_digests or args.workload):
        p.error("--workload is required")
    # PHOTODTN_OBS* would switch obs on inside the untraced workloads and
    # time a different program.
    obs_vars = sorted(k for k in os.environ if k.startswith("PHOTODTN_OBS"))
    if obs_vars:
        fail("refusing to run with " + ", ".join(obs_vars) + " set")
    build()
    if args.self_test:
        return self_test()
    if args.record_digests:
        return record_digests()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
