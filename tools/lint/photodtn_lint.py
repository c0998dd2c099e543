#!/usr/bin/env python3
"""Repo-specific lint for photodtn.

Fast, dependency-free checks for rules that clang-tidy cannot express and
that have bitten floating-point/simulation codebases like this one:

  banned-random       rand()/srand()/random() — all randomness must flow
                      through util/rng.h so experiments stay reproducible.
  banned-time         std::time/time(nullptr)/clock() as entropy or sim time —
                      simulation time is explicit, wall clock is not allowed
                      in library code.
  banned-wallclock    std::chrono::*_clock::now() outside src/obs/ and bench/ —
                      simulation code reads no wall clock, so traces and
                      metrics stay deterministic (sim-time-keyed).
  angle-compare       direct ==/!= on angle-ish floating-point identifiers
                      (angle/heading/theta/azimuth/bearing) — use the angle::
                      helpers (normalize_angle, angle_distance) instead.
  include-parent      #include "../..." — include paths are rooted at src/.
  include-bits        #include <bits/...> — non-portable libstdc++ internals.
  pragma-once         every header starts its include story with #pragma once.
  own-header-first    foo.cpp includes "module/foo.h" before anything else,
                      proving each header is self-contained.
  using-namespace     `using namespace` at namespace scope in a header leaks
                      into every includer.
  raw-file-write      std::ofstream / fwrite / fopen in src/ (outside
                      src/persist/) — artifact writes route through
                      persist::checked_write_file / atomic_write_file
                      (persist/file_io.h) so open/write/flush errors surface
                      instead of silently truncating on ENOSPC.
  scheme-run-control  a `.` or `->` call of the simulator's run-control
                      members (command_center_coverage, faults, is_down,
                      event_index, set_checkpoint_hook) in src/schemes/ —
                      a scheme sees the simulator as SimContext
                      (dtn/scheme.h) and acts only through its
                      scheme-facing accessors; the rest belongs to the
                      runner, tests and tooling.

Determinism rules (ordering hazards that parallel simulators hit — each
suppression REQUIRES a justification, see below):

  unordered-iter      iteration (range-for or .begin()) over a
                      std::unordered_map/unordered_set. Hash iteration order
                      is implementation-defined: any result-affecting walk
                      must extract-and-sort (the repo idiom) or prove the
                      loop body order-invariant in an allow justification.
                      Tracks local declarations, members of the paired
                      module header, and accessors returning unordered refs
                      (e.g. cache.entries()).
  pointer-key         std::map/set keyed by a pointer — iteration order is
                      address order, different every run under ASLR.
  atomic-float        std::atomic<float/double> — concurrent FP accumulation
                      commits rounding in scheduling order; keep sums integer
                      or fold per-chunk slots in chunk order after the fan-out.
  unordered-reduce    std::reduce (unspecified evaluation order), or
                      std::accumulate over an unordered container's range —
                      fold results depend on an order nobody pinned down.

Suppress a finding by appending:  // photodtn-lint: allow(<rule>)
Determinism rules additionally require a justification after a colon:
  // photodtn-lint: allow(unordered-iter): per-key updates commute
A suppression whose rule would no longer fire on that line is itself a
finding (stale-allow), so annotations cannot rot in place.

`--list-allows` prints every active suppression (file, rule, justification)
in a stable format — CONTRIBUTING.md's allow-list is regenerated from it.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

HEADER_EXTS = {".h", ".hpp"}
SOURCE_EXTS = {".cpp", ".cc", ".cxx"}
LINT_DIRS = ["src", "tools", "bench", "examples", "tests"]

ALLOW_RE = re.compile(
    r"photodtn-lint:\s*allow\(([a-z-]+)\)"
    r"(?::\s*(.*?)\s*(?=photodtn-lint:|$))?")

# Rules whose allow() must carry a justification text after a colon.
JUSTIFIED_RULES = {"unordered-iter", "pointer-key", "atomic-float", "unordered-reduce"}

# Rules that apply line by line:
# (rule, regex, message, applies_to_tests, exempt_prefixes, only_prefixes) —
# a file whose repo-relative path starts with an exempt prefix skips the rule
# entirely; a non-empty only_prefixes limits the rule to files under one of
# them.
LINE_RULES = [
    (
        "banned-random",
        re.compile(r"(?<![\w:.])(?:std::)?s?rand(?:om)?\s*\("),
        "raw C randomness; use photodtn::Rng (util/rng.h) so runs stay seeded "
        "and reproducible",
        True,
        (),
        (),
    ),
    (
        "banned-time",
        re.compile(r"(?<![\w:.])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&\w+)?\s*\)"
                   r"|(?<![\w:.])(?:std::)?clock\s*\(\s*\)"),
        "wall-clock time in library code; simulation time is explicit and "
        "entropy comes from util/rng.h",
        True,
        (),
        (),
    ),
    (
        "banned-wallclock",
        re.compile(r"(?<![\w.])(?:std::chrono::)?"
                   r"(?:steady|system|high_resolution)_clock\s*::\s*now\s*\("),
        "direct chrono clock read; wall-clock is allowed only under src/obs/ "
        "and bench/ — traces and metrics must stay deterministic",
        True,
        ("src/obs/", "bench/"),
        (),
    ),
    (
        "angle-compare",
        re.compile(
            r"[\w\].)]*(?:angle|heading|theta|azimuth|bearing)\w*(?:\(\))?"
            r"\s*[=!]=\s*[-\w.]"
        ),
        "direct ==/!= on an angle; compare via angle_distance()/normalize_angle() "
        "(geometry/angle.h) or an explicit epsilon",
        False,
        (),
        (),
    ),
    (
        "include-parent",
        re.compile(r'#\s*include\s*"\.\./'),
        'parent-relative include; include paths are rooted at src/ '
        '(e.g. "geometry/angle.h")',
        True,
        (),
        (),
    ),
    (
        "include-bits",
        re.compile(r"#\s*include\s*<bits/"),
        "libstdc++ internal header; include the standard header instead",
        True,
        (),
        (),
    ),
    (
        "pointer-key",
        re.compile(r"std::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"),
        "ordered container keyed by a pointer; iteration order is address "
        "order (different every run under ASLR) — key by a stable id instead",
        False,
        (),
        (),
    ),
    (
        "atomic-float",
        re.compile(r"std::atomic\s*<\s*(?:float|double|long\s+double)\s*>"),
        "atomic floating-point accumulation commits rounding in scheduling "
        "order; keep concurrent sums integer-valued or fold per-chunk partials "
        "in chunk order after the fan-out returns",
        False,
        (),
        (),
    ),
    (
        "unordered-reduce",
        re.compile(r"(?<![\w:])std::reduce\s*\("),
        "std::reduce folds in unspecified order; use std::accumulate over a "
        "canonically ordered range",
        False,
        (),
        (),
    ),
    (
        "raw-file-write",
        re.compile(r"(?<![\w:])(?:std::)?(?:ofstream\b|fwrite\s*\(|fopen\s*\()"),
        "raw file write; route artifacts through persist::checked_write_file "
        "or atomic_write_file (persist/file_io.h) so open/write/flush errors "
        "surface instead of silently truncating on ENOSPC",
        False,
        ("src/persist/", "tools/", "bench/", "examples/"),
        (),
    ),
    (
        "scheme-run-control",
        re.compile(r"(?:\.|->)\s*(?:command_center_coverage|faults|is_down|"
                   r"event_index|set_checkpoint_hook)\s*\("),
        "a scheme calling the simulator's run-control members; schemes act "
        "only through SimContext's scheme-facing accessors (dtn/scheme.h)",
        False,
        (),
        ("src/schemes/",),
    ),
]

STRING_OR_CHAR = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)\'')

# --- unordered-container tracking -------------------------------------------

UNORDERED = r"unordered_(?:multi)?(?:map|set)"
# A declaration that binds a name to an unordered container: variable, member,
# or reference parameter. Group 1: the name. Group 2: the terminator, which
# distinguishes accessor declarations (`>& name(` returning a reference) from
# variables (`> name;`, `> name =`, `> name(args...)`, `>& name,`).
TRACK_RE = re.compile(
    UNORDERED + r"\s*<[^;{}]*?>\s*(&?)\s*(\w+)\s*([;,=({\[)]|$)")
FOR_OPEN_RE = re.compile(r"\bfor\s*\(")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")


def range_for_exprs(code: str) -> list[str]:
    """Extracts the range expression of each range-for on the line.

    Walks the parenthesis balance so a same-line loop body
    (`for (x : vec) set.insert(x);`) never leaks into the range expression —
    a plain regex can't tell where the for-header's `)` is.
    """
    out = []
    for m in FOR_OPEN_RE.finditer(code):
        i = m.end()
        depth = 1
        colon = -1
        classic = False
        while i < len(code) and depth > 0:
            ch = code[i]
            if ch == "(" or ch == "[":
                depth += 1
            elif ch == ")" or ch == "]":
                depth -= 1
            elif ch == ";" and depth == 1:
                classic = True  # for(init; cond; step) — not a range-for
            elif ch == ":" and depth == 1 and colon < 0:
                if i + 1 < len(code) and code[i + 1] == ":":
                    i += 2  # skip `::` qualifiers
                    continue
                colon = i
            i += 1
        if depth == 0 and colon >= 0 and not classic:
            out.append(code[colon + 1:i - 1])
    return out
ACCUMULATE_RE = re.compile(r"(?<![\w:])(?:std::)?accumulate\s*\(\s*([^;]*)")


def unordered_decls(lines: list[str]) -> tuple[set[str], set[str]]:
    """Scans lines for unordered-container names: (variables, ref accessors).

    Variables covers members (`photos_`), locals (`want`), and reference
    parameters (`peer_snapshot`). Accessors are functions returning an
    unordered reference (`entries()`); their *call sites* are what
    iteration must not touch.
    """
    variables: set[str] = set()
    accessors: set[str] = set()
    for raw in lines:
        code = strip_comment_and_strings(raw)
        for m in TRACK_RE.finditer(code):
            by_ref, name, term = m.group(1), m.group(2), m.group(3)
            if by_ref == "&" and term == "(":
                accessors.add(name)
            else:
                variables.add(name)
    return variables, accessors


def references_unordered(expr: str, variables: set[str], accessors: set[str]) -> bool:
    """True when `expr` names a tracked unordered variable or accessor call."""
    for name in re.findall(r"\b(\w+)\b(?!\s*\()", expr):
        if name in variables:
            return True
    for call in re.findall(r"\b(\w+)\s*\(", expr):
        if call in accessors:
            return True
    return False


def strip_comment_and_strings(line: str) -> str:
    """Removes // comments and string/char literal contents from a line.

    Keeps the structure (so column positions of code stay roughly stable) but
    prevents rules from firing inside literals or prose.
    """
    line = STRING_OR_CHAR.sub('""', line)
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


class Finding:
    def __init__(self, path: Path, line_no: int, rule: str, message: str):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def allowed_rules(raw_line: str) -> dict[str, str]:
    """Maps each allow()'d rule on the line to its justification ('' if none)."""
    comment = raw_line.split("//", 1)
    tail = comment[1] if len(comment) > 1 else raw_line
    return {m.group(1): (m.group(2) or "").strip()
            for m in ALLOW_RE.finditer(tail)}


def in_tests(path: Path, root: Path) -> bool:
    return path.is_relative_to(root / "tests")


class FileContext:
    """Per-file lint context: tracked unordered names and active suppressions."""

    def __init__(self, path: Path, lines: list[str], root: Path,
                 global_accessors: set[str]):
        self.variables, self.accessors = unordered_decls(lines)
        self.accessors |= global_accessors
        # Members live in the module header but are iterated in the .cpp:
        # fold the paired header's declarations in.
        if path.suffix in SOURCE_EXTS and path.is_relative_to(root):
            rel = path.relative_to(root)
            if len(rel.parts) == 3 and rel.parts[0] == "src":
                header = root / "src" / rel.parts[1] / (path.stem + ".h")
                if header.exists():
                    try:
                        hvars, haccs = unordered_decls(
                            header.read_text(encoding="utf-8").splitlines())
                        self.variables |= hvars
                        self.accessors |= haccs
                    except (OSError, UnicodeDecodeError):
                        pass


def unordered_iter_hits(code: str, ctx: FileContext) -> bool:
    """Does this line iterate over a tracked unordered container?"""
    for expr in range_for_exprs(code):
        if references_unordered(expr, ctx.variables, ctx.accessors):
            return True
    if unordered_reduce_hits(code, ctx):
        return False  # a fold over .begin(): the unordered-reduce rule owns it
    for m in BEGIN_CALL_RE.finditer(code):
        if m.group(1) in ctx.variables:
            return True
    return False


def unordered_reduce_hits(code: str, ctx: FileContext) -> bool:
    """Does this line fold (accumulate) over a tracked unordered container?"""
    m = ACCUMULATE_RE.search(code)
    return bool(m) and references_unordered(m.group(1), ctx.variables,
                                            ctx.accessors)


def rule_fires(rule: str, code: str, line: str, ctx: FileContext) -> bool:
    """Whether `rule` would report this (comment/string-stripped) line.

    Used both for the main sweep and for stale-allow detection. `line` keeps
    string literals (include rules match the path literal), `code` does not.
    """
    if rule == "unordered-iter":
        return unordered_iter_hits(code, ctx)
    if rule == "unordered-reduce":
        if unordered_reduce_hits(code, ctx):
            return True
        # fall through: the std::reduce line-rule shares this name
    for r, rx, _msg, _tests, _exempt, _only in LINE_RULES:
        if r == rule:
            haystack = line if rule.startswith("include-") else code
            if rx.search(haystack):
                return True
    if rule == "using-namespace":
        return bool(re.search(r"(?<!\w)using\s+namespace\b", code))
    if rule == "own-header-first":
        return bool(INCLUDE_RE.search(line))
    return False


KNOWN_RULES = ({r for r, *_ in LINE_RULES}
               | {"unordered-iter", "using-namespace", "own-header-first",
                  "pragma-once", "stale-allow", "allow-needs-reason"})


def check_allows(path: Path, i: int, raw: str, code: str, line: str,
                 ctx: FileContext, allows: dict[str, str]) -> list[Finding]:
    """Validates suppression comments: known rule, justified, not stale."""
    findings = []
    for rule, reason in allows.items():
        if rule not in KNOWN_RULES:
            findings.append(Finding(
                path, i, "stale-allow",
                f"allow({rule}) names no lint rule; remove or fix the name"))
            continue
        if rule in JUSTIFIED_RULES and not reason:
            findings.append(Finding(
                path, i, "allow-needs-reason",
                f"allow({rule}) must justify why this site is order-invariant: "
                f"`// photodtn-lint: allow({rule}): <reason>`"))
        if not rule_fires(rule, code, line, ctx):
            findings.append(Finding(
                path, i, "stale-allow",
                f"allow({rule}) suppresses nothing on this line anymore; "
                "remove the comment (and CONTRIBUTING.md's allow-list entry)"))
    return findings


def check_line_rules(path: Path, lines: list[str], root: Path,
                     ctx: FileContext) -> list[Finding]:
    findings = []
    is_test = in_tests(path, root)
    rel = path.relative_to(root).as_posix() if path.is_relative_to(root) else ""
    in_block_comment = False
    # An allow on a standalone comment line suppresses on the next line
    # (NOLINTNEXTLINE-style); an allow trailing code suppresses its own line.
    carried: dict[str, str] = {}
    for i, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and line.find("*/", start) < 0:
            in_block_comment = True
            line = line[:start]
        code = strip_comment_and_strings(line)
        own_allows = allowed_rules(raw)
        standalone = bool(own_allows) and not code.strip()
        if standalone:
            # Validity (known rule, justification, staleness) is checked
            # against the line the comment annotates, once we reach it.
            carried = own_allows
            continue
        allows = dict(carried) | own_allows
        carried = {}
        findings.extend(check_allows(path, i, raw, code, line, ctx, allows))
        for rule, rx, msg, applies_to_tests, exempt_prefixes, only_prefixes in LINE_RULES:
            if is_test and not applies_to_tests:
                continue
            if any(rel.startswith(p) for p in exempt_prefixes):
                continue
            if only_prefixes and not any(rel.startswith(p) for p in only_prefixes):
                continue
            if rule in allows:
                continue
            # Include rules must see the path string literal; everything else
            # must not match inside literals.
            haystack = line if rule.startswith("include-") else code
            if rx.search(haystack):
                findings.append(Finding(path, i, rule, msg))
        if not is_test:
            if "unordered-iter" not in allows and unordered_iter_hits(code, ctx):
                findings.append(Finding(
                    path, i, "unordered-iter",
                    "iteration over a std::unordered_ container; hash order is "
                    "implementation-defined — extract-and-sort into a vector, "
                    "or justify order-invariance with "
                    "`// photodtn-lint: allow(unordered-iter): <reason>`"))
            if "unordered-reduce" not in allows and unordered_reduce_hits(code, ctx):
                findings.append(Finding(
                    path, i, "unordered-reduce",
                    "accumulate over an unordered container folds in hash "
                    "order; sort the range first or justify with an allow"))
    return findings


def check_header_rules(path: Path, lines: list[str]) -> list[Finding]:
    findings = []
    # pragma-once: first preprocessor directive in a header must be
    # `#pragma once` (leading comments are fine).
    first_directive = next(
        (l.strip() for l in lines if l.lstrip().startswith("#")), None)
    if first_directive != "#pragma once":
        findings.append(Finding(
            path, 1, "pragma-once",
            "headers must open with #pragma once before any other directive"))
    # using-namespace at namespace scope in a header.
    in_block_comment = False
    for i, raw in enumerate(lines, start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        start = line.find("/*")
        if start >= 0 and line.find("*/", start) < 0:
            in_block_comment = True
            line = line[:start]
        code = strip_comment_and_strings(line)
        if "using-namespace" in allowed_rules(raw):
            continue
        if re.search(r"(?<!\w)using\s+namespace\b", code):
            findings.append(Finding(
                path, i, "using-namespace",
                "`using namespace` in a header leaks into every includer; "
                "qualify names instead"))
    return findings


INCLUDE_RE = re.compile(r'#\s*include\s*["<]([^">]+)[">]')


def check_own_header_first(path: Path, lines: list[str], root: Path) -> list[Finding]:
    """foo.cpp under src/<module>/ must include "<module>/foo.h" first."""
    rel = path.relative_to(root)
    if rel.parts[0] != "src" or len(rel.parts) != 3:
        return []
    own_header = f"{rel.parts[1]}/{path.stem}.h"
    if not (root / "src" / own_header).exists():
        return []
    for i, raw in enumerate(lines, start=1):
        m = INCLUDE_RE.search(raw)
        if not m:
            continue
        if "own-header-first" in allowed_rules(raw):
            return []
        if m.group(1) == own_header:
            return []
        return [Finding(
            path, i, "own-header-first",
            f'first include must be "{own_header}" so the header proves '
            "self-contained")]
    return []


def lint_file(path: Path, root: Path,
              global_accessors: set[str]) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        return [Finding(path, 1, "unreadable", str(e))]
    lines = text.splitlines()
    ctx = FileContext(path, lines, root, global_accessors)
    findings = check_line_rules(path, lines, root, ctx)
    if path.suffix in HEADER_EXTS:
        findings += check_header_rules(path, lines)
    else:
        findings += check_own_header_first(path, lines, root)
    return findings


def collect_allows(path: Path) -> list[tuple[Path, int, str, str]]:
    """All active suppressions in a file: (path, line, rule, justification)."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError):
        return []
    out = []
    for i, raw in enumerate(lines, start=1):
        for rule, reason in allowed_rules(raw).items():
            out.append((path, i, rule, reason))
    return out


def collect_files(root: Path, args_paths: list[str]) -> list[Path]:
    if args_paths:
        return [Path(p).resolve() for p in args_paths]
    files = []
    for d in LINT_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in HEADER_EXTS | SOURCE_EXTS:
                files.append(p)
    return files


def global_accessor_registry(root: Path) -> set[str]:
    """Accessor names returning unordered refs, from every src/ header.

    Lets the lint flag `for (... : cache.entries())` in a file that never sees
    the declaration. Only src/ headers feed the registry: test helpers do
    not put unordered refs into the public API.
    """
    accessors: set[str] = set()
    base = root / "src"
    if not base.is_dir():
        return accessors
    for p in sorted(base.rglob("*")):
        if p.suffix not in HEADER_EXTS:
            continue
        try:
            _vars, accs = unordered_decls(
                p.read_text(encoding="utf-8").splitlines())
        except (OSError, UnicodeDecodeError):
            continue
        accessors |= accs
    return accessors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: all C++ under "
                             f"{', '.join(LINT_DIRS)})")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this script)")
    parser.add_argument("--list-allows", action="store_true",
                        help="print active suppressions (file:line rule — "
                             "reason) instead of linting; regenerates "
                             "CONTRIBUTING.md's allow-list")
    args = parser.parse_args()

    root = Path(args.root).resolve() if args.root \
        else Path(__file__).resolve().parent.parent.parent
    if not (root / "src").is_dir():
        print(f"photodtn_lint: no src/ under {root}", file=sys.stderr)
        return 2

    files = collect_files(root, args.paths)

    if args.list_allows:
        for f in files:
            for path, line_no, rule, reason in collect_allows(f):
                rel = path.relative_to(root).as_posix() \
                    if path.is_relative_to(root) else str(path)
                suffix = f" — {reason}" if reason else ""
                print(f"- `{rel}:{line_no}` `{rule}`{suffix}")
        return 0

    global_accessors = global_accessor_registry(root)
    findings = []
    for f in files:
        findings.extend(lint_file(f, root, global_accessors))

    for finding in findings:
        print(finding)
    if findings:
        print(f"photodtn_lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"photodtn_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
