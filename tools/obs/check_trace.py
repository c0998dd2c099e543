#!/usr/bin/env python3
"""Validators for the obs layer's JSON artifacts (CI + local debugging).

  check_trace.py validate TRACE.json
      Structural check of a Chrome trace-event document as written by
      obs::write_chrome_trace: traceEvents is a list of objects with the
      required ph/ts/pid/tid fields, complete events carry a non-negative
      dur, timestamps are finite and non-decreasing in file order (the
      writer emits the deterministic (ts, seq) merge), and the optional
      photodtnMetrics block passes validate-metrics.

  check_trace.py validate-metrics METRICS.json
      Check a photodtn-metrics/1 document (photodtn_cli --metrics-out):
      schema tag, per-scheme metrics blocks with integer counters and
      layout-consistent histograms (len(counts) == len(bounds) + 1, bucket
      totals == count, strictly increasing bounds).

  check_trace.py validate-provenance PROV.jsonl
      Check a photodtn-provenance/1 JSONL document (photodtn_cli
      --provenance-out): header line with the schema tag and an events
      count matching the body, known kind/outcome vocabulary, finite
      numerics, timestamps non-decreasing in file order, unique seq
      values, and the causal invariants — no event touches a photo before
      its capture, no delivery precedes capture, and per-transfer wire
      bytes never exceed the photo's captured size (an ok transfer or a
      delivery carries exactly the captured size; failed attempts carry
      zero).

  check_trace.py compare A B [--ignore-metrics]
      Byte-level JSON equality of two documents; --ignore-metrics strips
      the observability-only keys ("metrics", "photodtnMetrics")
      everywhere first, so a run with obs on can be compared against its
      obs-off golden twin.

Exit status: 0 ok, 1 check failed, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

KNOWN_PHASES = {"X", "i", "C", "M"}
OBS_ONLY_KEYS = {"metrics", "photodtnMetrics"}

PROV_SCHEMA = "photodtn-provenance/1"
PROV_KINDS = {"capture", "gossip", "transfer", "metadata_bytes", "drop",
              "spray_decrement", "delivery", "select_commit", "crash_wipe"}
PROV_OUTCOMES = {"ok", "interrupted", "no_budget", "no_space", "duplicate",
                 "missing"}
# Kinds whose `photo` field names a real photo (the rest leave it at 0).
PROV_PHOTO_KINDS = {"capture", "transfer", "drop", "spray_decrement",
                    "delivery", "select_commit"}
PROV_EVENT_KEYS = {"kind", "outcome", "ts", "photo", "node", "peer", "bytes",
                   "value", "aux", "seq"}


def fail(msg: str) -> int:
    print(f"check_trace: {msg}", file=sys.stderr)
    return 1


def load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trace: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def validate_histogram(name: str, h) -> str | None:
    if not isinstance(h, dict):
        return f"histogram {name!r} is not an object"
    bounds = h.get("bounds")
    counts = h.get("counts")
    if not isinstance(bounds, list) or not bounds:
        return f"histogram {name!r}: bounds missing or empty"
    if any(not isinstance(b, int) for b in bounds):
        return f"histogram {name!r}: non-integer bound"
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        return f"histogram {name!r}: bounds not strictly increasing"
    if not isinstance(counts, list) or len(counts) != len(bounds) + 1:
        return f"histogram {name!r}: counts must have len(bounds)+1 entries"
    if any(not isinstance(c, int) or c < 0 for c in counts):
        return f"histogram {name!r}: negative or non-integer bucket count"
    if sum(counts) != h.get("count"):
        return f"histogram {name!r}: bucket totals != count"
    return None


def validate_metrics_block(block, where: str) -> list[str]:
    errors = []
    if not isinstance(block, dict):
        return [f"{where}: metrics block is not an object"]
    for key in ("counters", "gauges", "histograms"):
        if key in block and not isinstance(block[key], dict):
            errors.append(f"{where}: {key} is not an object")
    for name, v in block.get("counters", {}).items():
        if not isinstance(v, int) or v < 0:
            errors.append(f"{where}: counter {name!r} is not a non-negative int")
    for name, v in block.get("gauges", {}).items():
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{where}: gauge {name!r} is not a finite number")
    for name, h in block.get("histograms", {}).items():
        err = validate_histogram(name, h)
        if err:
            errors.append(f"{where}: {err}")
    return errors


def cmd_validate(path: str) -> int:
    doc = load(path)
    if not isinstance(doc, dict):
        return fail(f"{path}: top level is not an object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return fail(f"{path}: traceEvents missing or not a list")
    errors = []
    prev_ts = None
    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not ev.get("name"):
            errors.append(f"{where}: missing name")
        if ph == "M":
            if "pid" not in ev:
                errors.append(f"{where}: metadata record missing pid")
            continue  # metadata records carry no timestamp/tid
        if "pid" not in ev or "tid" not in ev:
            errors.append(f"{where}: missing pid/tid")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts):
            errors.append(f"{where}: ts missing or not finite")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs dur >= 0")
        if prev_ts is not None and ts < prev_ts:
            errors.append(f"{where}: ts decreases ({ts} after {prev_ts}); the "
                          "writer emits the deterministic (ts, seq) order")
        prev_ts = ts
    if "photodtnMetrics" in doc:
        errors += validate_metrics_block(doc["photodtnMetrics"], path)
    for e in errors[:50]:
        print(f"check_trace: {e}", file=sys.stderr)
    if errors:
        return fail(f"{path}: {len(errors)} problem(s)")
    n_meta = sum(1 for e in events if e.get("ph") == "M")
    print(f"check_trace: {path} ok — {len(events) - n_meta} events, "
          f"{n_meta} metadata record(s)"
          + (", metrics block present" if "photodtnMetrics" in doc else ""))
    return 0


def cmd_validate_metrics(path: str) -> int:
    doc = load(path)
    if not isinstance(doc, dict) or doc.get("schema") != "photodtn-metrics/1":
        return fail(f"{path}: missing schema tag 'photodtn-metrics/1'")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return fail(f"{path}: results missing or empty")
    errors = []
    for i, r in enumerate(results):
        where = f"{path}: results[{i}]"
        if not isinstance(r, dict) or "scheme" not in r:
            errors.append(f"{where}: missing scheme")
            continue
        errors += validate_metrics_block(r.get("metrics"), where)
    for e in errors[:50]:
        print(f"check_trace: {e}", file=sys.stderr)
    if errors:
        return fail(f"{path}: {len(errors)} problem(s)")
    print(f"check_trace: {path} ok — {len(results)} scheme(s)")
    return 0


def cmd_validate_provenance(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        print(f"check_trace: cannot read {path}: {e}", file=sys.stderr)
        return 2
    if not lines:
        return fail(f"{path}: empty file (expected a header line)")

    def parse(i: int, text: str):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            return None, f"{path}: line {i + 1}: invalid JSON: {e}"
        if not isinstance(obj, dict):
            return None, f"{path}: line {i + 1}: not an object"
        return obj, None

    header, err = parse(0, lines[0])
    if err:
        return fail(err)
    if header.get("schema") != PROV_SCHEMA:
        return fail(f"{path}: header schema is {header.get('schema')!r}, "
                    f"expected {PROV_SCHEMA!r}")
    declared = header.get("events")
    if not isinstance(declared, int) or declared != len(lines) - 1:
        return fail(f"{path}: header declares {declared!r} events but the "
                    f"body has {len(lines) - 1} line(s)")

    errors = []
    prev_ts = None
    seqs = set()
    capture = {}  # photo id -> (capture size in bytes, line number)
    for i, text in enumerate(lines[1:], start=1):
        where = f"{path}: line {i + 1}"
        ev, err = parse(i, text)
        if err:
            errors.append(err)
            continue
        missing = PROV_EVENT_KEYS - ev.keys()
        if missing:
            errors.append(f"{where}: missing keys {sorted(missing)}")
            continue
        kind, outcome = ev["kind"], ev["outcome"]
        if kind not in PROV_KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        if outcome not in PROV_OUTCOMES:
            errors.append(f"{where}: unknown outcome {outcome!r}")
            continue
        bad_num = False
        for key in ("ts", "value", "aux"):
            if not isinstance(ev[key], (int, float)) or not math.isfinite(ev[key]):
                errors.append(f"{where}: {key} is not a finite number")
                bad_num = True
        for key in ("photo", "bytes", "seq"):
            if not isinstance(ev[key], int) or ev[key] < 0:
                errors.append(f"{where}: {key} is not a non-negative int")
                bad_num = True
        for key in ("node", "peer"):
            if not isinstance(ev[key], int):
                errors.append(f"{where}: {key} is not an int")
                bad_num = True
        if bad_num:
            continue
        ts, photo, bytes_ = ev["ts"], ev["photo"], ev["bytes"]
        if prev_ts is not None and ts < prev_ts:
            errors.append(f"{where}: ts decreases ({ts} after {prev_ts}); the "
                          "recorder merge emits (ts, seq) order")
        prev_ts = ts
        if ev["seq"] in seqs:
            errors.append(f"{where}: duplicate seq {ev['seq']}")
        seqs.add(ev["seq"])
        if kind not in ("transfer",) and outcome != "ok":
            errors.append(f"{where}: {kind} events always carry outcome 'ok', "
                          f"got {outcome!r}")
        # Causal invariants, per photo. Events that carry no photo id
        # (gossip, metadata_bytes, crash_wipe) leave the field at 0.
        if kind == "capture":
            if photo in capture:
                errors.append(f"{where}: photo {photo} captured twice "
                              f"(first on line {capture[photo][1] + 1})")
            else:
                capture[photo] = (bytes_, i)
            continue
        if kind not in PROV_PHOTO_KINDS:
            continue
        if photo not in capture:
            errors.append(f"{where}: {kind} on photo {photo} before its "
                          "capture event")
            continue
        size = capture[photo][0]
        if kind == "delivery" and bytes_ != size:
            errors.append(f"{where}: delivery of photo {photo} carries "
                          f"{bytes_} bytes, captured size is {size}")
        if kind == "transfer":
            if bytes_ > size:
                errors.append(f"{where}: transfer of photo {photo} carries "
                              f"{bytes_} bytes > captured size {size}")
            if outcome == "ok" and bytes_ != size:
                errors.append(f"{where}: ok transfer of photo {photo} carries "
                              f"{bytes_} bytes, captured size is {size}")
            if outcome in ("no_budget", "no_space", "duplicate", "missing") \
                    and bytes_ != 0:
                errors.append(f"{where}: failed transfer ({outcome}) of photo "
                              f"{photo} carries {bytes_} bytes, expected 0")

    for e in errors[:50]:
        print(f"check_trace: {e}", file=sys.stderr)
    if errors:
        return fail(f"{path}: {len(errors)} problem(s)")
    print(f"check_trace: {path} ok — {len(lines) - 1} provenance event(s), "
          f"{len(capture)} photo(s), scheme {header.get('scheme')!r}")
    return 0


def strip_obs_keys(doc):
    if isinstance(doc, dict):
        return {k: strip_obs_keys(v) for k, v in doc.items()
                if k not in OBS_ONLY_KEYS}
    if isinstance(doc, list):
        return [strip_obs_keys(v) for v in doc]
    return doc


def cmd_compare(a: str, b: str, ignore_metrics: bool) -> int:
    da, db = load(a), load(b)
    if ignore_metrics:
        da, db = strip_obs_keys(da), strip_obs_keys(db)
    if da != db:
        return fail(f"{a} and {b} differ"
                    + (" (after stripping obs keys)" if ignore_metrics else ""))
    print(f"check_trace: {a} == {b}"
          + (" (obs keys ignored)" if ignore_metrics else ""))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("validate", help="check a Chrome trace document")
    p.add_argument("trace")
    p = sub.add_parser("validate-metrics", help="check a metrics export")
    p.add_argument("metrics")
    p = sub.add_parser("validate-provenance",
                       help="check a provenance JSONL export")
    p.add_argument("provenance")
    p = sub.add_parser("compare", help="JSON equality of two documents")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--ignore-metrics", action="store_true",
                   help="strip metrics/photodtnMetrics keys first")
    args = parser.parse_args()
    if args.cmd == "validate":
        return cmd_validate(args.trace)
    if args.cmd == "validate-metrics":
        return cmd_validate_metrics(args.metrics)
    if args.cmd == "validate-provenance":
        return cmd_validate_provenance(args.provenance)
    return cmd_compare(args.a, args.b, args.ignore_metrics)


if __name__ == "__main__":
    sys.exit(main())
