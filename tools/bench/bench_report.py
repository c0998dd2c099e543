#!/usr/bin/env python3
"""Perf-regression report for the selection engine and the e2e loop.

Runs bench_micro (google-benchmark) with JSON output and distills it into
stable, diff-friendly JSON artifacts at the repo root:

  BENCH_selection.json  - engine microbenches (greedy gain, batched SoA
                          sweep, CELF selection, env build, reconcile,
                          select) with median ns/op per name, plus derived
                          numbers: the batched-kernel vs legacy-scan speedup
                          on the greedy-gain sweep (target below) and the
                          CELF lazy re-evaluation rate.
  BENCH_e2e.json        - the end-to-end simulator bench (clean run) and
                          the pool-backed multi-seed experiment sweep.
  BENCH_faults.json     - the clean/faulted e2e pair plus derived numbers:
                          what the active fault plan costs the mission
                          (faulted_vs_clean), and the clean-run drift vs the
                          previously committed BENCH_e2e.json reported two
                          ways — clean_delta_vs_prior is the *signed* drift
                          (negative = this commit is faster), while
                          clean_overhead_vs_prior clamps at zero and is the
                          number the < 5% overhead gate checks. Earlier
                          revisions conflated the two, so a 6% *improvement*
                          read as if it were being tested against the
                          overhead budget.
  BENCH_obs.json        - the observability pair: the obs-on e2e run vs the
                          clean one (obs_enabled_vs_clean, advisory — the
                          enabled path records every metric and span), and
                          the *disabled* cost, which is the gate: the clean
                          e2e median (every obs site a branch test) vs a
                          prior-commit clean median, target < 2% clamped
                          overhead. The committed-file comparison is
                          confounded by cross-session machine drift;
                          --prior-binary (a bench_micro built from the
                          previous commit, e.g. in a git worktree) measures
                          the prior clean run in the *same session*, and
                          when given that same-session number drives the
                          gate. Also carries the provenance pair: the
                          provenance-only e2e run vs the clean one
                          (prov_enabled_vs_clean, advisory) and the same
                          clean-run residue gated < 2% as
                          meets_prov_overhead_target.
  BENCH_persist.json    - the checkpointing pair: the e2e run snapshotting
                          every 500 events vs the clean one
                          (persist_enabled_vs_clean, advisory — the enabled
                          path serializes and atomically replaces a file),
                          and the *disabled* cost, which is the gate: with
                          no --checkpoint-every, persistence is one
                          unset-hook test per event, so the clean e2e drift
                          vs the prior clean median must stay < 2%
                          (clamped, same --prior-binary preference as the
                          obs gate).

Every run also appends one line to BENCH_history.jsonl (git sha, UTC date,
all medians, all derived numbers) — an append-only perf trajectory that
survives the snapshot JSONs being overwritten each PR.

CI runs this as a smoke job (with PHOTODTN_BENCH_RUNS reduced) and uploads
the JSONs as artifacts; numbers committed at the repo root record the perf
trajectory across PRs (see EXPERIMENTS.md, "Perf trajectory").

Usage:
  tools/bench/bench_report.py --bench-binary build/bench/bench_micro \
      [--out-dir .] [--repetitions 5] [--check]

--check exits non-zero when the greedy-gain speedup misses the target —
advisory in CI smoke runs (shared runners are noisy), enforced locally.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

SELECTION_FILTER = (
    "BM_GreedyGain|BM_GreedyGainScan|BM_GainsBatch|BM_GreedyGainCelf|"
    "BM_SelectionEnvBuild|BM_SelectionEnvReconcile|BM_GreedySelectEnv"
)
E2E_EXTRA_FILTER = "BM_ExperimentSweep"
FAULTS_FILTER = "BM_OurSchemeE2E(_Faults|_Obs|_Ckpt|_Prov)?$"
E2E_CLEAN = "BM_OurSchemeE2E"
E2E_FAULTED = "BM_OurSchemeE2E_Faults"
E2E_OBS = "BM_OurSchemeE2E_Obs"
E2E_CKPT = "BM_OurSchemeE2E_Ckpt"
E2E_PROV = "BM_OurSchemeE2E_Prov"
CELF_BENCH = "BM_GreedyGainCelf/250/256"
# Fault-layer overhead on a clean run (new clean median vs the previously
# committed one): tracked, target < 5%. The gate checks the clamped
# overhead; the signed delta is recorded alongside it. Advisory — committed
# numbers and CI runners differ in load, so --check reports but does not
# fail on it.
FAULT_OVERHEAD_TARGET = 0.05
# Obs-disabled overhead budget: the clean e2e run (obs off, every record
# site reduced to a null/branch test) vs the previously committed clean
# median. Advisory under --check for the same runner-noise reason.
OBS_OVERHEAD_TARGET = 0.02
# Checkpointing-disabled overhead budget: with no --checkpoint-every, the
# persist layer is one unset-hook test per event-loop iteration, so the
# clean e2e run must not drift more than 2% vs its pre-persist prior.
PERSIST_OVERHEAD_TARGET = 0.02
# Provenance-disabled overhead budget: with provenance off every
# provenance hook site is a null test of the recorder pointer, so the
# clean e2e run must stay within 2% of the prior clean median (same
# --prior-binary same-session preference as the obs gate).
PROV_OVERHEAD_TARGET = 0.02
# Enabled-cost ratios tracked as advisory *trends* in BENCH_history.jsonl.
# The absolute ratio is confounded by session load (the 2026-08-09 session
# recorded obs_enabled_vs_clean = 1.36 while its selection benches ran ~30%
# slower across the board; the obs-enabled absolute median was unchanged) —
# the history trend line makes that visible instead of letting one noisy
# session look like a regression.
TREND_KEYS = ("obs_enabled_vs_clean", "prov_enabled_vs_clean",
              "persist_enabled_vs_clean", "faulted_vs_clean")

# The tentpole target: the production gain sweep (batched SoA kernels +
# bucket-LUT segment lookup) vs the legacy per-segment scan at 64 PoIs /
# 256 candidates. Raised from 5x after the batched kernels landed measuring
# ~27x on the reference box — 15x keeps headroom for runner noise.
TARGET_PAIR = ("BM_GreedyGain/64/256", "BM_GreedyGainScan/64/256")
TARGET_SPEEDUP = 15.0

# google-benchmark's fixed per-benchmark JSON keys; anything else numeric is
# a user counter (reeval_rate, segs_per_poi, ...).
_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "label",
    "error_occurred", "error_message",
}


def git_sha(repo_root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_bench(binary: Path, bench_filter: str, repetitions: int) -> dict:
    cmd = [
        str(binary),
        f"--benchmark_filter={bench_filter}",
        "--benchmark_format=json",
        f"--benchmark_repetitions={repetitions}",
        "--benchmark_report_aggregates_only=false",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"bench run failed: {' '.join(cmd)}")
    return json.loads(out.stdout)


def median_ns_by_name(raw: dict) -> dict:
    """name -> {median_ns, runs[, counters]} over per-repetition iterations."""
    samples: dict[str, list[float]] = {}
    counters: dict[str, dict[str, list[float]]] = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue  # we aggregate ourselves
        name = b["name"].split("/repeats:")[0]
        # Normalize to nanoseconds regardless of the reported time_unit.
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        samples.setdefault(name, []).append(float(b["real_time"]) * scale)
        for key, val in b.items():
            if key in _STANDARD_KEYS or not isinstance(val, (int, float)):
                continue
            counters.setdefault(name, {}).setdefault(key, []).append(float(val))
    out = {}
    for name, vals in sorted(samples.items()):
        entry = {"median_ns": statistics.median(vals), "runs": len(vals)}
        if name in counters:
            entry["counters"] = {
                k: statistics.median(v) for k, v in sorted(counters[name].items())
            }
        out[name] = entry
    return out


def same_session_clean_delta(
    current: Path, prior: Path, repetitions: int, pairs: int = 3
) -> float | None:
    """Signed clean-e2e drift of `current` vs `prior`, both run now.

    The binaries alternate (current, prior, current, prior, ...) so a load
    spike hits both sides, and each side is summarized by the *minimum* of
    its per-run medians: on a shared container noise only ever adds time,
    so the min is the estimate least contaminated by other tenants.
    """
    cur_meds, pri_meds = [], []
    for _ in range(pairs):
        for binary, meds in ((current, cur_meds), (prior, pri_meds)):
            entry = median_ns_by_name(
                run_bench(binary, f"{E2E_CLEAN}$", repetitions)
            ).get(E2E_CLEAN)
            if entry:
                meds.append(entry["median_ns"])
    if not cur_meds or not pri_meds or min(pri_meds) <= 0:
        return None
    return min(cur_meds) / min(pri_meds) - 1.0


def write_report(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def last_history_derived(path: Path) -> dict:
    """The `derived` block of the newest well-formed BENCH_history.jsonl line."""
    if not path.exists():
        return {}
    derived = {}
    for line in path.read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and isinstance(record.get("derived"), dict):
            derived = record["derived"]
    return derived


def append_history(out_dir: Path, sha: str, reports: dict) -> None:
    """One JSONL line per report run: the append-only perf trajectory."""
    record = {
        "schema": "photodtn-bench-history/1",
        "git_sha": sha,
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "medians_ns": {
            name: entry["median_ns"]
            for report in reports.values()
            for name, entry in report.get("benchmarks", {}).items()
        },
        "derived": {
            key: val
            for report in reports.values()
            for key, val in report.get("derived", {}).items()
        },
    }
    path = out_dir / "BENCH_history.jsonl"
    # Advisory trend line: how each enabled-cost ratio moved vs the previous
    # history entry. Session load shifts every ratio's denominator at once,
    # so a jump here is only meaningful when the rest of the line's medians
    # held steady — the trend block records the movement either way.
    prev = last_history_derived(path)
    trend = {}
    for key in TREND_KEYS:
        cur, old = record["derived"].get(key), prev.get(key)
        if isinstance(cur, (int, float)) and isinstance(old, (int, float)):
            trend[key] = {"prev": old, "current": cur, "delta": cur - old}
    if trend:
        record["trend"] = trend
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench-binary", required=True, type=Path)
    parser.add_argument(
        "--prior-binary",
        type=Path,
        default=None,
        help="bench_micro built from the previous commit; when given, the "
        "obs-disabled overhead gate compares against its clean e2e run "
        "measured in this session instead of the committed (cross-session, "
        "drift-confounded) BENCH_e2e.json median",
    )
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when the greedy-gain speedup misses the target",
    )
    args = parser.parse_args()

    if not args.bench_binary.exists():
        raise SystemExit(f"bench binary not found: {args.bench_binary}")
    args.out_dir.mkdir(parents=True, exist_ok=True)
    sha = git_sha(args.out_dir.resolve())

    selection = median_ns_by_name(
        run_bench(args.bench_binary, SELECTION_FILTER, args.repetitions)
    )
    engine, baseline = (selection.get(n) for n in TARGET_PAIR)
    speedup = (
        baseline["median_ns"] / engine["median_ns"]
        if engine and baseline and engine["median_ns"] > 0
        else None
    )
    celf = selection.get(CELF_BENCH, {})
    celf_reeval_rate = celf.get("counters", {}).get("reeval_rate")
    selection_report = {
        "schema": "photodtn-bench/1",
        "git_sha": sha,
        "benchmarks": selection,
        "derived": {
            "greedy_gain_speedup": speedup,
            "speedup_target": TARGET_SPEEDUP,
            "meets_target": speedup is not None and speedup >= TARGET_SPEEDUP,
            "celf_reeval_rate": celf_reeval_rate,
        },
    }
    write_report(args.out_dir / "BENCH_selection.json", selection_report)

    # Snapshot the previously committed clean e2e median *before* we
    # overwrite it: it is the baseline for the fault-layer overhead check
    # (the prior binary had no fault layer in the loop / an older one).
    prior_e2e_path = args.out_dir / "BENCH_e2e.json"
    prior_clean_ns = None
    if prior_e2e_path.exists():
        try:
            prior = json.loads(prior_e2e_path.read_text())
            prior_clean_ns = prior["benchmarks"][E2E_CLEAN]["median_ns"]
        except (json.JSONDecodeError, KeyError, TypeError):
            prior_clean_ns = None

    e2e_all = median_ns_by_name(
        run_bench(args.bench_binary, FAULTS_FILTER, args.repetitions)
    )
    e2e = {k: v for k, v in e2e_all.items() if k == E2E_CLEAN}
    e2e.update(
        median_ns_by_name(
            run_bench(args.bench_binary, E2E_EXTRA_FILTER, args.repetitions)
        )
    )
    e2e_report = {
        "schema": "photodtn-bench/1",
        "git_sha": sha,
        "benchmarks": e2e,
    }
    write_report(prior_e2e_path, e2e_report)

    clean, faulted = (e2e_all.get(n) for n in (E2E_CLEAN, E2E_FAULTED))
    faulted_vs_clean = (
        faulted["median_ns"] / clean["median_ns"]
        if clean and faulted and clean["median_ns"] > 0
        else None
    )
    # Signed drift of this commit's clean run vs the committed snapshot;
    # the overhead gates only look at slowdowns (clamped at zero), so an
    # improvement can never be mistaken for budget consumption. The
    # committed snapshot was recorded in an earlier session, so this number
    # folds in machine drift; a --prior-binary run happens in *this*
    # session and is immune to it — when present it drives both gates.
    clean_delta = (
        clean["median_ns"] / prior_clean_ns - 1.0
        if clean and prior_clean_ns
        else None
    )
    same_session_delta = None
    if args.prior_binary is not None:
        if not args.prior_binary.exists():
            raise SystemExit(f"prior binary not found: {args.prior_binary}")
        same_session_delta = same_session_clean_delta(
            args.bench_binary, args.prior_binary, args.repetitions
        )
    gate_delta = same_session_delta if same_session_delta is not None else clean_delta
    gate_overhead = max(0.0, gate_delta) if gate_delta is not None else None
    faults_report = {
        "schema": "photodtn-bench/1",
        "git_sha": sha,
        "benchmarks": e2e_all,
        "derived": {
            "faulted_vs_clean": faulted_vs_clean,
            "clean_delta_vs_prior": clean_delta,
            "clean_delta_same_session": same_session_delta,
            "clean_overhead_vs_prior": gate_overhead,
            "overhead_target": FAULT_OVERHEAD_TARGET,
            "meets_overhead_target": gate_overhead is not None
            and gate_overhead < FAULT_OVERHEAD_TARGET,
        },
    }
    write_report(args.out_dir / "BENCH_faults.json", faults_report)

    # Observability pair: what the obs layer costs when it is *on* (advisory
    # — the enabled path does real recording work), and when it is *off*
    # (the gate: the clean run vs a prior-commit clean run is exactly the
    # disabled-obs residue, since obs-off leaves one branch per site). A
    # --prior-binary measurement happens in this session on this machine, so
    # it is immune to the container drift that pollutes the committed-file
    # comparison; prefer it for the gate when present.
    obs_on = e2e_all.get(E2E_OBS)
    obs_enabled_vs_clean = (
        obs_on["median_ns"] / clean["median_ns"]
        if clean and obs_on and clean["median_ns"] > 0
        else None
    )
    # Provenance rides the same report: its enabled cost (every lifecycle
    # hook appends one POD event) is advisory, and its disabled cost is the
    # same clean-run residue the obs gate measures — with provenance off,
    # every provenance hook site is one null test on the clean run.
    prov_on = e2e_all.get(E2E_PROV)
    prov_enabled_vs_clean = (
        prov_on["median_ns"] / clean["median_ns"]
        if clean and prov_on and clean["median_ns"] > 0
        else None
    )
    obs_report = {
        "schema": "photodtn-bench/1",
        "git_sha": sha,
        "benchmarks": {
            k: v
            for k, v in e2e_all.items()
            if k in (E2E_CLEAN, E2E_OBS, E2E_PROV)
        },
        "derived": {
            "obs_enabled_vs_clean": obs_enabled_vs_clean,
            "obs_disabled_delta_vs_prior": clean_delta,
            "obs_disabled_delta_same_session": same_session_delta,
            "obs_disabled_overhead": gate_overhead,
            "obs_overhead_target": OBS_OVERHEAD_TARGET,
            "meets_obs_overhead_target": gate_overhead is not None
            and gate_overhead < OBS_OVERHEAD_TARGET,
            "prov_enabled_vs_clean": prov_enabled_vs_clean,
            "prov_disabled_overhead": gate_overhead,
            "prov_overhead_target": PROV_OVERHEAD_TARGET,
            "meets_prov_overhead_target": gate_overhead is not None
            and gate_overhead < PROV_OVERHEAD_TARGET,
        },
    }
    write_report(args.out_dir / "BENCH_obs.json", obs_report)

    # Checkpointing pair: what snapshotting every 500 events costs when it
    # is *on* (advisory — real serialization + an atomic file replace), and
    # when it is *off* (the gate: the clean run vs the prior clean run is
    # exactly the disabled-persistence residue, one unset-hook test per
    # event). Same drift caveats and --prior-binary preference as above.
    ckpt_on = e2e_all.get(E2E_CKPT)
    persist_enabled_vs_clean = (
        ckpt_on["median_ns"] / clean["median_ns"]
        if clean and ckpt_on and clean["median_ns"] > 0
        else None
    )
    persist_report = {
        "schema": "photodtn-bench/1",
        "git_sha": sha,
        "benchmarks": {
            k: v for k, v in e2e_all.items() if k in (E2E_CLEAN, E2E_CKPT)
        },
        "derived": {
            "persist_enabled_vs_clean": persist_enabled_vs_clean,
            "persist_disabled_delta_vs_prior": clean_delta,
            "persist_disabled_delta_same_session": same_session_delta,
            "persist_disabled_overhead": gate_overhead,
            "persist_overhead_target": PERSIST_OVERHEAD_TARGET,
            "meets_persist_overhead_target": gate_overhead is not None
            and gate_overhead < PERSIST_OVERHEAD_TARGET,
        },
    }
    write_report(args.out_dir / "BENCH_persist.json", persist_report)

    append_history(
        args.out_dir,
        sha,
        {
            "selection": selection_report,
            "e2e": e2e_report,
            "faults": faults_report,
            "obs": obs_report,
            "persist": persist_report,
        },
    )

    if speedup is not None:
        print(f"greedy gain speedup (batched vs scan, 64 PoIs / 256 cands): "
              f"{speedup:.2f}x (target {TARGET_SPEEDUP:.1f}x)")
    if celf_reeval_rate is not None:
        print(f"CELF re-evaluation rate (250 PoIs / 256 cands): "
              f"{celf_reeval_rate:.3f}")
    if faulted_vs_clean is not None:
        print(f"faulted e2e vs clean: {faulted_vs_clean:.3f}x")
    if clean_delta is not None:
        print(f"clean e2e drift vs prior commit: {100.0 * clean_delta:+.1f}% "
              f"(overhead gate < {100.0 * FAULT_OVERHEAD_TARGET:.0f}% "
              f"on slowdowns only)")
    if obs_enabled_vs_clean is not None:
        print(f"obs-enabled e2e vs clean: {obs_enabled_vs_clean:.3f}x "
              f"(obs-disabled gate < {100.0 * OBS_OVERHEAD_TARGET:.0f}% "
              f"drift, advisory)")
    if prov_enabled_vs_clean is not None:
        print(f"provenance-enabled e2e vs clean: {prov_enabled_vs_clean:.3f}x "
              f"(prov-disabled gate < {100.0 * PROV_OVERHEAD_TARGET:.0f}% "
              f"drift, advisory)")
    if persist_enabled_vs_clean is not None:
        print(f"checkpointing e2e vs clean: {persist_enabled_vs_clean:.3f}x "
              f"(persist-disabled gate < "
              f"{100.0 * PERSIST_OVERHEAD_TARGET:.0f}% drift, advisory)")
    if same_session_delta is not None:
        print(f"obs-disabled drift vs prior binary (same session): "
              f"{100.0 * same_session_delta:+.1f}% "
              f"(gate < {100.0 * OBS_OVERHEAD_TARGET:.0f}%)")
    if args.check and (speedup is None or speedup < TARGET_SPEEDUP):
        print("FAIL: speedup target missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
