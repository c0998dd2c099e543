#!/usr/bin/env python3
"""Self-test for photodtn_lint.py.

Materialises the `.fixture` files into a temporary mini-repo (so the paired
header lookup, global accessor registry, and --root handling run exactly the
code paths the real sweep runs), lints it, and asserts the finding set —
every positive fixture line must fire its rule, every negative must stay
silent. Keeps the lint honest in both directions: a regex loosened until it
misses a hazard fails here just like one tightened until it spams.

Exit status: 0 all assertions hold, 1 otherwise.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

# fixture file -> path inside the mini-repo (under src/demo/ so the
# paired-header and own-header-first machinery engage; the scheme fixture
# under src/schemes/, the one directory its rule covers).
MANIFEST = {
    "store.h.fixture": "src/demo/store.h",
    "store.cpp.fixture": "src/demo/store.cpp",
    "widget.cpp.fixture": "src/demo/widget.cpp",
    "widget_ok.cpp.fixture": "src/demo/widget_ok.cpp",
    "hazards.cpp.fixture": "src/demo/hazards.cpp",
    "allows.cpp.fixture": "src/demo/allows.cpp",
    "run_control.cpp.fixture": "src/demo/run_control.cpp",
    "scheme.cpp.fixture": "src/schemes/scheme.cpp",
}

EXPECT_RE = re.compile(r"//.*?EXPECT\s+([a-z-]+)")
FINDING_RE = re.compile(r"^(.*?):(\d+): \[([a-z-]+)\]")


def expected_findings(root: Path) -> set[tuple[str, int, str]]:
    """(relpath, line, rule) triples declared by EXPECT comments in fixtures."""
    out = set()
    for rel in MANIFEST.values():
        path = root / rel
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            for m in EXPECT_RE.finditer(line):
                out.add((rel, i, m.group(1)))
    return out


def main() -> int:
    missing = [f for f in MANIFEST if not (FIXTURES / f).exists()]
    if missing:
        print(f"lint_selftest: missing fixtures: {missing}", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="photodtn-lint-selftest-") as tmp:
        root = Path(tmp)
        for fixture, rel in MANIFEST.items():
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(FIXTURES / fixture, dest)

        proc = subprocess.run(
            [sys.executable, str(HERE / "photodtn_lint.py"), "--root", str(root)],
            capture_output=True, text=True)

        actual = set()
        for line in proc.stdout.splitlines():
            m = FINDING_RE.match(line)
            if not m:
                continue
            rel = Path(m.group(1)).resolve().relative_to(root).as_posix()
            actual.add((rel, int(m.group(2)), m.group(3)))

        expected = expected_findings(root)

        ok = True
        for triple in sorted(expected - actual):
            print(f"MISSED  {triple[0]}:{triple[1]} expected [{triple[2]}]")
            ok = False
        for triple in sorted(actual - expected):
            print(f"SPURIOUS {triple[0]}:{triple[1]} reported [{triple[2]}]")
            ok = False
        if proc.returncode not in (0, 1):
            print(f"lint exited {proc.returncode}: {proc.stderr}", file=sys.stderr)
            ok = False
        if expected and proc.returncode != 1:
            print(f"lint should exit 1 with findings, got {proc.returncode}")
            ok = False

        # --list-allows must enumerate the fixtures' suppressions with their
        # justifications (CONTRIBUTING.md's allow-list is regenerated from it).
        listing = subprocess.run(
            [sys.executable, str(HERE / "photodtn_lint.py"), "--root", str(root),
             "--list-allows"],
            capture_output=True, text=True)
        if listing.returncode != 0:
            print(f"--list-allows exited {listing.returncode}", file=sys.stderr)
            ok = False
        if "commutative integer sum" not in listing.stdout:
            print("--list-allows lost a justification text")
            ok = False

        if ok:
            print(f"lint_selftest: {len(expected)} positives fired, "
                  "no spurious findings")
            return 0
        return 1


if __name__ == "__main__":
    sys.exit(main())
