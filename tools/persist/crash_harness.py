#!/usr/bin/env python3
"""Crash-recovery harness for the snapshot layer.

Runs a checkpointing simulation, SIGKILLs it at random points, restarts it
from the surviving snapshot, and repeats — then lets the final incarnation
run to completion and asserts its result JSON is byte-identical to an
uninterrupted baseline of the same spec and seed. This exercises the whole
persistence story end to end: periodic atomic checkpoint writes, kills
landing mid-simulation and mid-write, and restores that must resume without
drifting by a single byte.

Usage:
  crash_harness.py --cli build/tools/photodtn_cli [--kills 3] [--seed 1]

Exit status 0 = recovery held byte-identity; anything else is a failure.
Stdlib only; no third-party dependencies.
"""

import argparse
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def sim_args(scheme: str) -> list:
    # Sized so an uninterrupted run takes about a second with checkpoints
    # every few hundred events: long enough to kill mid-flight reliably,
    # short enough for CI. Faults are on, so recovery is proven against the
    # disrupted event stream, not just the clean one.
    return [
        "simulate", "--runs", "1", "--scheme", scheme,
        "--scale", "0.3", "--hours", "160", "--seed", "7",
        "--fault-interrupt", "0.2", "--fault-crash-rate", "0.02",
        "--fault-gossip-loss", "0.1",
    ]


def run_to_completion(cmd, label):
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"crash_harness: {label} exited {proc.returncode}:\n"
                 f"{proc.stderr.strip()}")


def same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cli", required=True,
                    help="path to the photodtn_cli binary")
    ap.add_argument("--scheme", default="OurScheme")
    ap.add_argument("--kills", type=int, default=3,
                    help="number of SIGKILLs to land before the final run")
    ap.add_argument("--checkpoint-every", type=int, default=500,
                    help="events between snapshots")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed for the kill-timing RNG (not the simulation)")
    ap.add_argument("--workdir", default=None,
                    help="scratch directory (default: a fresh temp dir)")
    args = ap.parse_args()

    cli = os.path.abspath(args.cli)
    if not os.access(cli, os.X_OK):
        sys.exit(f"crash_harness: {cli} is not an executable")

    rng = random.Random(args.seed)
    workdir = args.workdir or tempfile.mkdtemp(prefix="photodtn_crash_")
    os.makedirs(workdir, exist_ok=True)
    base_json = os.path.join(workdir, "baseline.json")
    final_json = os.path.join(workdir, "recovered.json")
    snap = os.path.join(workdir, "checkpoint.snap")
    for stale in (base_json, final_json, snap, snap + ".tmp"):
        if os.path.exists(stale):
            os.remove(stale)

    base = sim_args(args.scheme)
    print(f"crash_harness: workdir {workdir}")
    run_to_completion([cli] + base + ["--json", base_json], "baseline run")
    print("crash_harness: baseline complete")

    def interrupted_cmd():
        cmd = [cli] + base + [
            "--checkpoint-every", str(args.checkpoint_every),
            "--checkpoint-out", snap, "--json", final_json,
        ]
        if os.path.exists(snap):
            cmd += ["--restore-from", snap]
        return cmd

    kills = 0
    attempts = 0
    # Each round (re)starts the run — from scratch before the first snapshot
    # lands, from the latest snapshot after — and kills it mid-flight. A
    # round that finishes before the kill timer still counts as an attempt:
    # if it had resumed, its result must already match the baseline. Its
    # final snapshot leaves too little run to kill (a restore from it ends
    # in tens of milliseconds), so the next round starts from scratch, and
    # the timer shrinks so later rounds land earlier.
    delay_hi = 0.8
    while kills < args.kills:
        attempts += 1
        if attempts > 20 * args.kills:
            sys.exit("crash_harness: could not land enough kills "
                     f"({kills}/{args.kills} after {attempts} attempts); "
                     "the scenario finishes too fast on this machine")
        resumed = os.path.exists(snap)
        proc = subprocess.Popen(interrupted_cmd(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        time.sleep(rng.uniform(0.05, delay_hi))
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            kills += 1
            print(f"crash_harness: kill {kills}/{args.kills} "
                  f"({'resumed run' if resumed else 'fresh run'})")
        else:
            stderr = proc.stderr.read().strip()
            if proc.returncode != 0:
                sys.exit(f"crash_harness: interrupted-run candidate exited "
                         f"{proc.returncode} before the kill:\n{stderr}")
            if resumed and not same_bytes(base_json, final_json):
                sys.exit(f"crash_harness: FAIL — a resumed run that finished "
                         f"before the kill differs from the baseline "
                         f"({base_json} vs {final_json})")
            # Finished before we could kill it; start over and aim earlier.
            for done in (snap, final_json):
                if os.path.exists(done):
                    os.remove(done)
            delay_hi = max(0.1, delay_hi * 0.5)

    if not os.path.exists(snap):
        sys.exit("crash_harness: no snapshot survived the kill rounds — "
                 "lower --checkpoint-every or raise the kill delay")

    run_to_completion(interrupted_cmd(), "recovery run")

    if not same_bytes(base_json, final_json):
        sys.exit(f"crash_harness: FAIL — recovered result differs from the "
                 f"baseline ({base_json} vs {final_json})")
    print(f"crash_harness: OK — {kills} kill(s), {attempts} attempt(s), "
          f"recovered result byte-identical to the baseline")
    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
