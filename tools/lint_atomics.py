#!/usr/bin/env python3
"""Atomics-discipline linter for the dosn-study sources.

The work-stealing runtime's slab cursors (DESIGN.md §12) and the
observability layer (§9) put the hot path on hand-ordered atomics. A single wrong
`memory_order_relaxed` is invisible to tests and to TSan on the
interleavings a run happens to explore, and only corrupts a sweep
checksum on weaker hardware. This linter enforces the repo's atomics
protocol (DESIGN.md §13) textually, the same way lint_determinism.py
enforces the determinism rules:

Rules
-----
  implicit-order  every std::atomic load/store/RMW must name an explicit
                  std::memory_order — seq-cst-by-default hides the
                  author's intent and costs fences nobody audited.
                  Covers .load/.store/.exchange/.fetch_*/
                  .compare_exchange_{weak,strong}/.test_and_set.
  missing-protocol every site that names an explicit memory order must
                  carry a `protocol:` comment (same line, or in the
                  contiguous `//` block above the statement) explaining
                  what the order pairs with — acquire without its
                  release partner is the bug class this catches.
  raw-volatile    `volatile` is not a synchronization primitive; use
                  std::atomic with an explicit order.
  thread-outside-util
                  raw std::thread construction belongs to the runtime
                  layer (src/util); everything else runs on
                  PipelineRuntime/ThreadPool so lifecycle, exception
                  propagation and nesting stay centralized. (Applies to
                  src/ outside src/util/; tests and benches may spawn
                  scaffolding threads.)
  double-checked-locking
                  an `if (x)` guarding a lock acquisition followed by a
                  re-check of the same condition — the classic broken
                  DCLP shape; use a mutex-only fast path, call_once, or
                  an acquire-published pointer.

Suppressions
------------
A finding is suppressed when the matched line, the statement's first
line, or the contiguous `//` comment block directly above the statement
contains `lint:atomics-ok` with a justification (the linter only checks
the marker exists). Suppressions are for protocol-reviewed sites; src/
currently carries none.

Usage
-----
  tools/lint_atomics.py [--self-test] [path ...]

With no paths, scans `src/` relative to the repository root. Exits 1
when findings remain, 0 when clean. `--self-test` runs the embedded
positive/negative corpus; CI and ctest run it before trusting a clean
scan.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

SUPPRESS = "lint:atomics-ok"

# Atomic member functions that accept a std::memory_order argument.
ATOMIC_CALL = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong|test_and_set)"
    r"\s*\("
)

MEMORY_ORDER = re.compile(
    r"\bmemory_order(?:_|::)?(relaxed|acquire|release|acq_rel|seq_cst|consume)\b"
)

VOLATILE = re.compile(r"\bvolatile\b")

STD_THREAD = re.compile(r"\bstd::thread\b(?!::hardware_concurrency)")

LOCK_ACQ = re.compile(
    r"\b(MutexLock|lock_guard|unique_lock|scoped_lock)\b|\.\s*lock\s*\(")

IF_COND = re.compile(r"\bif\s*\((.*?)\)")

_BLANK = re.compile(r"[^\n]")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure, so documentation mentioning memory orders is not a
    finding. (Same algorithm as lint_determinism.py.)"""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(_BLANK.sub(" ", text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def statement_first_line(code_lines: list[str], lineno0: int) -> int:
    """0-based index of the first line of the statement containing
    `lineno0`: walks up while the previous stripped-code line is a
    continuation (non-blank and not ending in ; { } :)."""
    i = lineno0
    while i > 0:
        prev = code_lines[i - 1].rstrip()
        if not prev.strip() or prev.endswith((";", "{", "}", ":")):
            break
        i -= 1
    return i


def comment_context(raw_lines: list[str], code_lines: list[str],
                    lineno0: int) -> list[str]:
    """The lines whose comments may cover `lineno0`: the line itself,
    every line of its statement up to the first, and the contiguous `//`
    block directly above the statement."""
    first = statement_first_line(code_lines, lineno0)
    context = raw_lines[first:lineno0 + 1]
    k = first - 1
    while k >= 0 and raw_lines[k].lstrip().startswith("//"):
        context.append(raw_lines[k])
        k -= 1
    return context


def call_arguments(code: str, open_paren: int) -> str:
    """The argument text of the call whose '(' is at `open_paren` in the
    stripped source (may span lines); truncated at EOF if unbalanced."""
    depth = 0
    for j in range(open_paren, len(code)):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:j]
    return code[open_paren + 1:]


def scan_text(text: str, path: str) -> list[tuple[str, int, str, str]]:
    """Returns (path, 1-based line, rule, message) findings for one file."""
    raw_lines = text.splitlines()
    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()
    # Offset of each line start in `code` (same layout as `text`).
    line_starts = [0]
    for line in code_lines:
        line_starts.append(line_starts[-1] + len(line) + 1)

    findings = []

    def suppressed(lineno0: int) -> bool:
        return any(SUPPRESS in line
                   for line in comment_context(raw_lines, code_lines, lineno0))

    def has_protocol(lineno0: int) -> bool:
        return any("protocol:" in line
                   for line in comment_context(raw_lines, code_lines, lineno0))

    def add(lineno0: int, rule: str, message: str) -> None:
        if not suppressed(lineno0):
            findings.append((path, lineno0 + 1, rule, message))

    # implicit-order: atomic calls whose argument list names no order.
    for m in ATOMIC_CALL.finditer(code):
        lineno0 = code.count("\n", 0, m.start())
        args = call_arguments(code, m.end() - 1)
        if not MEMORY_ORDER.search(args):
            add(lineno0, "implicit-order",
                f".{m.group(1)}() without an explicit std::memory_order — "
                "seq-cst-by-default hides intent; name the order and its "
                "pairing")

    # missing-protocol: explicit orders must carry a protocol comment.
    for lineno0, line in enumerate(code_lines):
        if not MEMORY_ORDER.search(line):
            continue
        if has_protocol(lineno0):
            continue
        add(lineno0, "missing-protocol",
            "explicit memory order without a `protocol:` comment — state "
            "what this site pairs with (or why relaxed is safe)")

    # raw-volatile.
    for lineno0, line in enumerate(code_lines):
        if VOLATILE.search(line):
            add(lineno0, "raw-volatile",
                "volatile is not a synchronization primitive; use "
                "std::atomic with an explicit memory order")

    # thread-outside-util: raw std::thread only inside src/util/.
    norm = path.replace("\\", "/")
    in_src = "/src/" in norm or norm.startswith("src/")
    in_util = "/util/" in norm or norm.startswith("util/")
    if in_src and not in_util:
        for lineno0, line in enumerate(code_lines):
            if STD_THREAD.search(line):
                add(lineno0, "thread-outside-util",
                    "raw std::thread outside src/util — run on "
                    "PipelineRuntime/ThreadPool, or justify with "
                    "lint:atomics-ok")

    # double-checked-locking: if (x) ... lock ... if (x) within a short
    # window. Textual heuristic for the classic broken shape.
    for lineno0, line in enumerate(code_lines):
        m = IF_COND.search(line)
        if not m:
            continue
        cond = re.sub(r"\s+", "", m.group(1))
        if not cond:
            continue
        window = code_lines[lineno0 + 1:lineno0 + 5]
        for k, lock_line in enumerate(window):
            if not LOCK_ACQ.search(lock_line):
                continue
            recheck = code_lines[lineno0 + 1 + k + 1:lineno0 + 1 + k + 5]
            for j, rl in enumerate(recheck):
                m2 = IF_COND.search(rl)
                if m2 and re.sub(r"\s+", "", m2.group(1)) == cond:
                    add(lineno0, "double-checked-locking",
                        "re-checking the same condition around a lock "
                        "(classic broken DCLP) — use call_once, a "
                        "mutex-only fast path, or an acquire-published "
                        "pointer")
                    break
            else:
                continue
            break
    return findings


def scan_paths(paths: list[pathlib.Path]) -> list[tuple[str, int, str, str]]:
    findings = []
    for root in paths:
        files = (
            sorted(p for p in root.rglob("*") if p.suffix in SOURCE_SUFFIXES)
            if root.is_dir()
            else [root]
        )
        for f in files:
            findings.extend(scan_text(f.read_text(encoding="utf-8"), str(f)))
    return findings


# (snippet, pseudo-path, expected rule or None)
SELF_TEST_CASES = [
    # implicit-order positives: defaulted seq-cst in every RMW/load/store.
    ("flag_.store(true);", "src/x.cpp", "implicit-order"),
    ("auto v = flag_.load();", "src/x.cpp", "implicit-order"),
    ("count_.fetch_add(1);", "src/x.cpp", "implicit-order"),
    ("old = state_.exchange(next);", "src/x.cpp", "implicit-order"),
    ("done = top_.compare_exchange_strong(t, t + 1);", "src/x.cpp",
     "implicit-order"),
    # ... including when the call spans lines.
    ("bool won = top_.compare_exchange_strong(\n    t, t + 1);",
     "src/x.cpp", "implicit-order"),
    # Explicit order without a protocol comment: still a finding.
    ("flag_.store(true, std::memory_order_release);", "src/x.cpp",
     "missing-protocol"),
    # Explicit order + protocol comment (same line): clean.
    ("flag_.store(true, std::memory_order_release);  // protocol: pairs "
     "with the acquire load in run()", "src/x.cpp", None),
    # Explicit order + protocol comment (block above): clean.
    ("// protocol: release — publishes the slot write; pairs with the\n"
     "// consumer's acquire load of tail_.\n"
     "tail_.store(next, std::memory_order_release);", "src/x.cpp", None),
    # Multi-line call with the order on a continuation line: the comment
    # above the *statement* covers it.
    ("// protocol: seq_cst CAS — totally ordered with take()'s CAS.\n"
     "bool won = top_.compare_exchange_strong(\n"
     "    t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);",
     "src/x.cpp", None),
    # lint:atomics-ok suppresses any rule.
    ("count_.fetch_add(1);  // lint:atomics-ok legacy telemetry, audited",
     "src/x.cpp", None),
    # raw-volatile.
    ("volatile int ready = 0;", "src/x.cpp", "raw-volatile"),
    # std::thread placement.
    ("std::thread worker([&] { run(); });", "src/sim/x.cpp",
     "thread-outside-util"),
    ("std::thread worker([&] { run(); });", "src/util/x.cpp", None),
    ("// lint:atomics-ok — joined before return, SPSC handoff only\n"
     "std::thread producer([&] { produce(); });", "src/synth/x.cpp", None),
    ("unsigned hw = std::thread::hardware_concurrency();", "src/sim/x.cpp",
     None),
    # Double-checked locking.
    ("if (instance_ == nullptr) {\n"
     "  MutexLock lock(mutex_);\n"
     "  if (instance_ == nullptr) {\n"
     "    instance_ = new Registry();\n"
     "  }\n"
     "}", "src/x.cpp", "double-checked-locking"),
    # Plain locked check (no outer unguarded test): clean.
    ("MutexLock lock(mutex_);\n"
     "if (instance_ == nullptr) {\n"
     "  instance_ = new Registry();\n"
     "}", "src/x.cpp", None),
    # Negatives: comments, strings, and non-atomic identifiers.
    ("// the docs discuss flag_.store(true) semantics", "src/x.cpp", None),
    ("log(\"x.load() would need an order\");", "src/x.cpp", None),
    ("schedule.load_from_csv(path);", "src/x.cpp", None),  # not 1-arg .load(
    ("results.store_to(path);", "src/x.cpp", None),
    ("buffer_.resize(n);", "src/x.cpp", None),
]


def self_test() -> int:
    failures = 0
    for snippet, pseudo_path, expected in SELF_TEST_CASES:
        found = {rule for _, _, rule, _ in scan_text(snippet, pseudo_path)}
        ok = (expected in found) if expected else not found
        if not ok:
            failures += 1
            print(
                f"self-test FAIL: {snippet!r} @ {pseudo_path}: expected "
                f"{expected or 'no finding'}, got {sorted(found) or 'none'}"
            )
    if failures:
        print(f"{failures}/{len(SELF_TEST_CASES)} self-test cases failed")
        return 1
    print(f"self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=pathlib.Path)
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter against embedded samples")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    paths = args.paths or [pathlib.Path(__file__).resolve().parent.parent / "src"]
    for p in paths:
        if not p.exists():
            print(f"lint_atomics: no such path: {p}", file=sys.stderr)
            return 2

    findings = scan_paths(paths)
    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint_atomics: {len(findings)} finding(s)")
        return 1
    print("lint_atomics: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
