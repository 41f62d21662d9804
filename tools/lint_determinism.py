#!/usr/bin/env python3
"""Determinism linter for the dosn-study sources.

The study engine guarantees bit-identical results for a fixed seed across
platforms and thread counts (DESIGN.md §7). That guarantee is easy to break
silently: one `std::rand()` call, one iteration over an `unordered_map`
that feeds an output vector, or one distribution seeded from wall-clock
time reorders results without failing a single functional test. This
linter scans the sources for those hazard patterns and fails CI when one
appears outside the audited places.

Rules
-----
  wall-clock      time()/clock()/gettimeofday()/localtime()/... calls:
                  wall-clock input makes runs unrepeatable.
  c-rand          rand()/srand()/random()/drand48()/rand_r(): the C RNG is
                  global, unseeded by the experiment seed, and
                  platform-dependent.
  random-device   std::random_device: nondeterministic by design.
  std-engine      std::mt19937 & friends: distribution output differs per
                  standard library; all randomness must flow through
                  util::Rng (xoshiro256**, portable streams).
  std-distribution std::*_distribution: value sequences are
                  implementation-defined even for a fixed engine.
  thread-id       std::this_thread::get_id()/pthread_self(): logic keyed on
                  scheduler-assigned ids diverges across runs.
  unordered-iter  any use of std::unordered_{map,set,multimap,multiset}:
                  hash iteration order is unspecified, so results computed
                  by iterating one are nondeterministic. Uses whose
                  iteration order provably cannot leak into results carry a
                  `lint:ordered-ok` comment (same line or the line above)
                  with a justification.
  fixed-tempdir   testing::TempDir() joined to a string literal with no
                  per-test component: ctest -j runs every test case as its
                  own process, so a fixed temp path is shared state that a
                  sibling's cleanup can delete mid-test. Key the path by
                  current_test_info()->name(). Matched on the raw line (the
                  hazard is the literal itself), so a join split across
                  lines is not seen.

Suppressions
------------
A finding is suppressed when the matched line, or the contiguous `//`
comment block directly above it, contains `lint:ordered-ok`
(unordered-iter rule) or `lint:determinism-ok` (any rule). Suppression
comments should say *why* the use is safe — the linter only checks that
the marker exists.

Usage
-----
  tools/lint_determinism.py [--self-test] [path ...]

With no paths, scans `src/` relative to the repository root (the directory
containing this script's parent). CI and ctest scan wider — src/, bench/,
examples/ and tests/ — because a nondeterministic *test* (an unordered
container feeding an expectation, a wall-clock seed) silently weakens the
bit-identity contract it is supposed to enforce. Exits 1 when findings
remain, 0 when clean. `--self-test` runs the linter against embedded
positive/negative samples and exits accordingly — CI runs it so the lint
wall is itself tested.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

# (rule name, compiled regex, message). Patterns are matched against
# comment- and string-stripped source lines.
RULES = [
    (
        "wall-clock",
        re.compile(r"\b(?:std::)?(?:time|clock|gettimeofday|localtime|gmtime|ctime|mktime)\s*\("),
        "wall-clock input breaks run-to-run reproducibility; derive times from the experiment seed or the simulated clock",
    ),
    (
        "c-rand",
        re.compile(r"\b(?:std::)?(?:rand|srand|random|drand48|lrand48|rand_r)\s*\("),
        "C PRNG is global and platform-dependent; draw from util::Rng",
    ),
    (
        "random-device",
        re.compile(r"\brandom_device\b"),
        "std::random_device is nondeterministic by design; seed util::Rng explicitly",
    ),
    (
        "std-engine",
        re.compile(r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w+|knuth_b|default_random_engine)\b"),
        "std engines produce library-dependent streams; use util::Rng (portable xoshiro256**)",
    ),
    (
        "std-distribution",
        re.compile(r"\bstd::\w+_distribution\b"),
        "std distribution output is implementation-defined; use util::Rng helpers (uniform/normal/exponential/...)",
    ),
    (
        "thread-id",
        re.compile(r"\b(?:this_thread::get_id|pthread_self)\s*\("),
        "scheduler-assigned thread ids must not influence results; key work by index, not by thread",
    ),
    (
        "unordered-iter",
        re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
        "hash iteration order is unspecified; iterate a sorted structure or annotate with lint:ordered-ok + why",
    ),
]

# Rules matched against the raw line, before strip_comments_and_strings
# blanks the string literal they are about. A match counts only where the
# stripped line still holds code, so comments never trip them.
RAW_RULES = [
    (
        "fixed-tempdir",
        re.compile(r'\bTempDir\(\)\s*\)?\s*[/+]\s*"(?:[^"\\]|\\.)*"(?!\s*[/+])'),
        "fixed temp path is shared by every test process under ctest -j; add a per-test component (current_test_info()->name())",
    ),
]

_BLANK = re.compile(r"[^\n]")


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure, so documentation mentioning std::mt19937 is not a finding."""
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


def scan_text(text: str, path: str) -> list[tuple[str, int, str, str]]:
    """Returns (path, 1-based line, rule, message) findings for one file."""
    raw_lines = text.splitlines()
    stripped_lines = strip_comments_and_strings(text).splitlines()
    findings = []
    for lineno, (raw, code) in enumerate(zip(raw_lines, stripped_lines), 1):
        if code.lstrip().startswith("#include"):
            continue  # the use site is flagged instead of the include
        # The matched line plus the contiguous // comment block above it.
        context = [raw]
        k = lineno - 2
        while k >= 0 and raw_lines[k].lstrip().startswith("//"):
            context.append(raw_lines[k])
            k -= 1
        suppress_all = any("lint:determinism-ok" in line for line in context)
        suppress_ordered = any("lint:ordered-ok" in line for line in context)
        for rule, pattern, message in RULES:
            if not pattern.search(code):
                continue
            if suppress_all:
                continue
            if rule == "unordered-iter" and suppress_ordered:
                continue
            findings.append((path, lineno, rule, message))
        for rule, pattern, message in RAW_RULES:
            in_code = any(code[m.start()] != " " for m in pattern.finditer(raw))
            if in_code and not suppress_all:
                findings.append((path, lineno, rule, message))
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


SELF_TEST_CASES = [
    # (snippet, expected rule or None)
    ("int x = rand();", "c-rand"),
    ("srand(42);", "c-rand"),
    ("auto t = time(nullptr);", "wall-clock"),
    ("std::random_device rd;", "random-device"),
    ("std::mt19937 gen(42);", "std-engine"),
    ("std::uniform_int_distribution<int> d(0, 9);", "std-distribution"),
    ("auto id = std::this_thread::get_id();", "thread-id"),
    ("std::unordered_map<int, int> m;", "unordered-iter"),
    ("// lint:ordered-ok — never iterated\nstd::unordered_map<int, int> m;", None),
    ("std::unordered_set<int> s;  // lint:ordered-ok membership only", None),
    ("std::mt19937 gen;  // lint:determinism-ok reference impl for a test", None),
    # Negatives: identifiers, comments and strings must not trip rules.
    ("double aod = aod_time(contacts, profile);", None),
    ("auto s = split_by_time(dataset, 0.5);", None),
    ("// unlike std::mt19937, xoshiro is portable", None),
    ("log(\"calling time() here would be bad\");", None),
    ("SimTime now = queue.now();", None),
    ("run_until(end_time);", None),
    # The obs sharded-counter pattern (DESIGN.md §9) must stay lintable:
    # per-thread slots come from a process-wide counter, not scheduler ids,
    # and merging sums commutes — none of it may trip a rule.
    ("std::array<Shard, kShards> shards_{};", None),
    ("thread_local const std::size_t slot = next_slot.fetch_add(1);", None),
    ("shards_[detail::shard_slot()].v.fetch_add(n, std::memory_order_relaxed);", None),
    ("const auto t0 = std::chrono::steady_clock::now();", None),
    # ...whereas keying a shard off the scheduler id, or merging through a
    # hash map, is exactly what the rules exist to catch.
    ("auto slot = std::hash<std::thread::id>{}(std::this_thread::get_id());", "thread-id"),
    ("std::unordered_map<std::string, std::uint64_t> totals;", "unordered-iter"),
    ("// lint:ordered-ok — totals drained via sorted key copy\nstd::unordered_map<std::string, std::uint64_t> totals;", None),
    # Temp paths: a fixed name under TempDir() is shared across the test
    # processes ctest -j runs side by side; a per-test component is not.
    ('const auto path = testing::TempDir() + "/dosn_out.csv";', "fixed-tempdir"),
    ('dir_ = std::filesystem::path(testing::TempDir()) / "dosn_sessions";', "fixed-tempdir"),
    ('dir_ = std::filesystem::path(testing::TempDir()) / (std::string("dosn_") + name);', None),
    ('return testing::TempDir() + "/dosn_" + name + suffix;', None),
    ('const auto root = testing::TempDir();', None),
    ('// never write testing::TempDir() + "/fixed.csv" in a test', None),
    ('// lint:determinism-ok — the only test in its binary\nconst auto p = testing::TempDir() + "/x.csv";', None),
]


def self_test() -> int:
    failures = 0
    for snippet, expected in SELF_TEST_CASES:
        found = {rule for _, _, rule, _ in scan_text(snippet, "<self-test>")}
        ok = (expected in found) if expected else not found
        if not ok:
            failures += 1
            print(
                f"self-test FAIL: {snippet!r}: expected "
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
            print(f"lint_determinism: no such path: {p}", file=sys.stderr)
            return 2

    findings = scan_paths(paths)
    for path, lineno, rule, message in findings:
        print(f"{path}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint_determinism: {len(findings)} finding(s)")
        return 1
    print("lint_determinism: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
