#!/usr/bin/env python3
"""Bench-regression gate for the BENCH_*.json reports.

Compares a freshly produced bench report against the committed baseline
and fails when the current run is meaningfully worse. Two checks:

correctness
    Every scenario must report ``outputs_identical: true`` — the engine
    optimizations are exact and the fault-injection layer's zero plan must
    reproduce unfaulted outputs, so any divergence is a correctness bug
    regardless of speed. A scenario present in the baseline but missing
    from the current report also fails (a silently dropped workload is not
    a pass). A scenario present only in the *current* report is an
    addition: the gate prints a warning so the baseline gets refreshed,
    but does not fail — new coverage must never be punished.

performance
    Raw milliseconds are machine-dependent (the committed baseline and the
    CI runner are different hardware), so timings are never compared
    directly. Instead each optimized configuration is normalized by the
    *same report's* seed-engine time:

        ratio = <config>_ms / seed_engine_ms

    The seed engine runs identical work in the same process on the same
    machine, so the ratio cancels hardware speed and measures only how
    much of the optimization's advantage survives. The gate fails when a
    current ratio exceeds the baseline ratio by more than ``--threshold``
    (default 0.25, i.e. a >25% relative regression). Scenarios without a
    ``seed_engine_ms`` anchor (e.g. the fault-resilience report, whose
    timings are informational) are correctness-only: their booleans are
    enforced, their milliseconds are not.

memory (warn-only)
    Fields ending in ``peak_rss_mb``, per scenario or at the report's top
    level (``process_peak_rss_mb``), track the memory envelope (the scale
    bench's acceptance criterion). Peak RSS depends on allocator, page
    size and machine, so growth beyond 50% of the baseline prints a
    warning for a human to judge; it never fails the gate.

hardware (warn-only)
    Reports record the machine's ``hardware_threads`` at the top level.
    When the current run's value differs from the baseline's, the gate
    prints both — a reader judging a speedup or RSS warning needs to know
    whether the two reports even ran on comparable hardware (a committed
    single-core-container baseline vs. a multi-core CI runner explains
    most drift on its own). When only one of the two reports records the
    field, the gate says so: the comparison cannot be made at all, which
    is worth as much notice as a mismatch. Never a failure: hardware
    changes are expected, silent hardware changes are not.

scale (warn-only)
    Reports that take a dataset scale record it as the top-level
    ``scale``. When the baseline's and the current report's values
    differ (e.g. a ``DOSN_BENCH_SCALE=0.1`` CI run against a baseline
    recorded at 0.23), the gate prints both: the two runs timed
    different work, so their seed-engine ratios need not agree. Never a
    failure.

speedup (warn-only)
    Parallel-scaling health for scenarios that time the same work in two
    configurations (``SPEEDUP_PAIRS``, e.g. ``sweep_parallel_ms`` vs
    ``sweep_serial_ms`` in the scale bench). The within-report quotient

        ratio = parallel_ms / serial_ms

    cancels hardware speed the same way the seed-engine anchor does; a
    ratio drifting up past the baseline by ``SPEEDUP_WARN_FRACTION`` means
    the parallel path lost ground relative to the serial path (the "flat
    parallel scaling" failure mode the work-stealing runtime fixed).
    Warn-only because the quotient also depends on the runner's core
    count: the committed baseline may come from a single-core container,
    where "parallel" measures oversubscription overhead, not speedup.

latency SLOs
    The serving bench (BENCH_serving.json) reports request-latency
    percentiles in *simulated seconds* — deterministic, seed-fixed values
    with no hardware dependence — so ``p50_s`` and ``p99_s`` are gated
    directly: the gate fails when the current value exceeds the baseline
    by more than ``--threshold`` (an improvement passes; refresh the
    baseline to lock it in). A baseline of 0 s fails on any nonzero
    current value — from an exact 0, any growth is a behavior change.
    ``p999_s`` (a single-request tail, the most sensitive percentile to
    an intended workload change) and ``goodput_rps`` (a derived quotient)
    are warn-only: drift prints a warning for a human to judge.

hardware, per scenario (warn-only)
    Newer reports also record ``hardware_threads`` per scenario. When a
    scenario-level value (falling back to the report's top level) differs
    between baseline and current — and at least one report carries the
    field on the scenario itself — the gate names the scenario, so a
    mixed-provenance baseline (scenarios committed from different
    machines) is visible at the granularity where it matters.

``--allow-missing`` downgrades "present in baseline but missing from the
current report" from failure to warning. It exists for baselines committed
from a full run whose CI job reruns only a subset — e.g. BENCH_scale.json
holds N = 100k/500k/1M while the smoke job reruns only N = 100k. Never
use it for same-workload comparisons, where a dropped scenario is a bug.

Usage
-----
  tools/check_bench_regression.py --baseline BENCH_study_engine.json \
      --current ci-bench/BENCH_study_engine.json [--threshold 0.25] \
      [--allow-missing]
  tools/check_bench_regression.py --self-test

``--self-test`` verifies the gate itself: an identical report must pass,
a 30% injected slowdown must fail, and ``outputs_identical: false`` must
fail. CI runs it before trusting the real comparison.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import pathlib
import sys

# Optimized-engine fields normalized by seed_engine_ms for comparison.
TIMED_FIELDS = [
    "incremental_lazy_ms",
    "parallel_lazy_ms",
]

DEFAULT_THRESHOLD = 0.25

# Peak-RSS growth beyond this fraction of the baseline prints a warning
# (never a failure — memory is machine-dependent but worth eyeballing).
RSS_WARN_FRACTION = 0.50

# (parallel_field, serial_field) pairs whose within-report quotient tracks
# parallel-scaling health. Warn-only: the quotient depends on the runner's
# core count, which baseline and CI need not share.
SPEEDUP_PAIRS = [
    ("sweep_parallel_ms", "sweep_serial_ms"),
    ("sweep_reshard_ms", "sweep_serial_ms"),
    ("gen_pipelined_ms", "gen_ms"),
]

SPEEDUP_WARN_FRACTION = 0.25

# Deterministic simulated-latency percentiles (serving bench), gated
# directly — simulated seconds are hardware-independent, so no anchor is
# needed. Fails when current > baseline * (1 + threshold).
LATENCY_GATE_FIELDS = ["p50_s", "p99_s"]

# Warn-only latency tail: p999 is a single-request order statistic, the
# first number to move under an intended workload change.
LATENCY_WARN_FIELDS = ["p999_s"]

# Warn-only throughput floor: warns when current < baseline * (1 - f).
GOODPUT_WARN_FIELDS = ["goodput_rps"]
GOODPUT_WARN_FRACTION = 0.25


def load_report(path: pathlib.Path) -> dict:
    with path.open(encoding="utf-8") as fh:
        report = json.load(fh)
    if "scenarios" not in report:
        raise ValueError(f"{path}: no 'scenarios' section")
    return report


def scenario_ratios(scenario: dict) -> dict[str, float]:
    """Timed fields normalized by the seed-engine anchor. Empty for
    correctness-only scenarios (no ``seed_engine_ms``)."""
    if "seed_engine_ms" not in scenario:
        return {}
    seed_ms = float(scenario["seed_engine_ms"])
    if seed_ms <= 0:
        raise ValueError(
            f"scenario {scenario.get('name')!r}: non-positive seed_engine_ms"
        )
    return {f: float(scenario[f]) / seed_ms
            for f in TIMED_FIELDS if f in scenario}


def speedup_ratios(scenario: dict) -> dict[str, float]:
    """parallel/serial quotients for every SPEEDUP_PAIRS pair the scenario
    reports. Lower is better; > 1.0 means the parallel configuration ran
    slower than the serial one."""
    ratios = {}
    for parallel_field, serial_field in SPEEDUP_PAIRS:
        if parallel_field not in scenario or serial_field not in scenario:
            continue
        serial_ms = float(scenario[serial_field])
        if serial_ms <= 0:
            continue
        key = f"{parallel_field}/{serial_field}"
        ratios[key] = float(scenario[parallel_field]) / serial_ms
    return ratios


def warn_on_speedup_regression(name: str, base: dict, cur: dict) -> None:
    """Warn-only parallel-scaling comparison over SPEEDUP_PAIRS."""
    base_ratios = speedup_ratios(base)
    cur_ratios = speedup_ratios(cur)
    for key, base_ratio in base_ratios.items():
        cur_ratio = cur_ratios.get(key)
        if cur_ratio is None or base_ratio <= 0:
            continue
        drift = cur_ratio / base_ratio - 1.0
        if drift > SPEEDUP_WARN_FRACTION:
            print(
                f"  WARNING: {name}.{key}: parallel/serial ratio "
                f"{cur_ratio:.3f} vs baseline {base_ratio:.3f} "
                f"({drift * 100.0:+.0f}%) — parallel scaling regressed, "
                "check the runtime before refreshing the baseline"
            )


def warn_on_rss_growth(name: str, base: dict, cur: dict) -> None:
    """Warn-only memory-envelope comparison over *_peak_rss_mb fields."""
    for field, base_value in base.items():
        if not field.endswith("peak_rss_mb"):
            continue
        cur_value = cur.get(field)
        if cur_value is None or float(base_value) <= 0:
            continue
        growth = float(cur_value) / float(base_value) - 1.0
        if growth > RSS_WARN_FRACTION:
            print(
                f"  WARNING: {name}.{field}: peak RSS grew "
                f"{growth * 100.0:+.0f}% ({base_value} -> {cur_value} MiB) — "
                "memory envelope drift, check before refreshing the baseline"
            )


def check_latency_gates(name: str, base: dict, cur: dict,
                        threshold: float) -> list[str]:
    """Direct (un-anchored) gates over the deterministic simulated-latency
    percentiles; see the module docstring. Returns failure messages."""
    failures = []
    for field in LATENCY_GATE_FIELDS:
        if field not in base or field not in cur:
            continue
        b, c = float(base[field]), float(cur[field])
        limit = b * (1.0 + threshold)
        status = "FAIL" if c > limit else "ok"
        print(f"  {name}.{field}: {c:.0f}s vs baseline {b:.0f}s "
              f"(limit {limit:.0f}s) [{status}]")
        if c > limit:
            failures.append(
                f"{name}: {field} regressed from {b:.0f}s to {c:.0f}s "
                f"(threshold {threshold * 100.0:.0f}%"
                f"{'; exact-zero baseline' if b == 0 else ''})"
            )
    return failures


def warn_on_serving_drift(name: str, base: dict, cur: dict,
                          threshold: float) -> None:
    """Warn-only serving-quality drift: the p999 tail and the goodput
    quotient move first under intended workload changes, so a human
    judges them instead of the gate."""
    for field in LATENCY_WARN_FIELDS:
        if field not in base or field not in cur:
            continue
        b, c = float(base[field]), float(cur[field])
        if c > b * (1.0 + threshold):
            print(
                f"  WARNING: {name}.{field}: tail latency grew "
                f"{b:.0f}s -> {c:.0f}s — check whether the workload "
                "change was intended before refreshing the baseline"
            )
    for field in GOODPUT_WARN_FIELDS:
        if field not in base or field not in cur:
            continue
        b, c = float(base[field]), float(cur[field])
        if b > 0 and c < b * (1.0 - GOODPUT_WARN_FRACTION):
            print(
                f"  WARNING: {name}.{field}: goodput dropped "
                f"{b:.3f} -> {c:.3f} requests/s — serving quality drift, "
                "check before refreshing the baseline"
            )


def warn_on_scenario_hardware_mismatch(name: str, base: dict, cur: dict,
                                       baseline: dict,
                                       current: dict) -> None:
    """Per-scenario hardware_threads comparison (scenario field, top-level
    fallback). Only emitted when a scenario itself carries the field, so
    reports without per-scenario hardware don't repeat the top-level
    warning once per scenario."""
    if "hardware_threads" not in base and "hardware_threads" not in cur:
        return
    base_hw = base.get("hardware_threads", baseline.get("hardware_threads"))
    cur_hw = cur.get("hardware_threads", current.get("hardware_threads"))
    if base_hw is None or cur_hw is None or base_hw == cur_hw:
        return
    print(
        f"  WARNING: {name}: hardware_threads differ: baseline ran with "
        f"{base_hw}, current with {cur_hw} — this scenario's timings span "
        "different hardware"
    )


def warn_on_hardware_mismatch(baseline: dict, current: dict) -> None:
    """Warn-only top-level hardware_threads comparison: ratio warnings
    below are only as comparable as the machines that produced them."""
    base_hw = baseline.get("hardware_threads")
    cur_hw = current.get("hardware_threads")
    if (base_hw is None) != (cur_hw is None):
        which, value = (("baseline", base_hw) if cur_hw is None
                        else ("current report", cur_hw))
        print(
            f"  WARNING: only the {which} records hardware_threads "
            f"({value}) — the two reports' hardware cannot be compared"
        )
        return
    if base_hw == cur_hw:
        return
    print(
        f"  WARNING: hardware_threads differ: baseline ran with {base_hw}, "
        f"current with {cur_hw} — speedup and RSS comparisons span "
        "different hardware, read their warnings accordingly"
    )


def warn_on_scale_mismatch(baseline: dict, current: dict) -> None:
    """Warn-only top-level ``scale`` comparison: reports run at different
    dataset scales time different work."""
    base_scale = baseline.get("scale")
    cur_scale = current.get("scale")
    if base_scale == cur_scale:
        return
    print(
        f"  WARNING: scale differs: baseline ran at {base_scale}, current "
        f"at {cur_scale} — the two reports timed different work, so their "
        "ratios need not agree"
    )


def compare(baseline: dict, current: dict, threshold: float,
            allow_missing: bool = False) -> list[str]:
    """Returns a list of failure messages (empty = gate passes)."""
    failures = []
    baseline_names = {s["name"] for s in baseline["scenarios"]}
    current_by_name = {s["name"]: s for s in current["scenarios"]}

    warn_on_hardware_mismatch(baseline, current)
    warn_on_scale_mismatch(baseline, current)
    warn_on_rss_growth("report", baseline, current)

    for cur in current["scenarios"]:
        if not cur.get("outputs_identical", False):
            failures.append(
                f"{cur['name']}: outputs_identical is false — the run no "
                "longer reproduces its reference outputs bit for bit"
            )
        if cur["name"] not in baseline_names:
            # New coverage, not a regression: warn so the committed baseline
            # gets refreshed, but let the gate pass.
            print(
                f"  WARNING: {cur['name']}: present only in the current "
                "report (new scenario) — refresh the committed baseline"
            )

    for base in baseline["scenarios"]:
        name = base["name"]
        cur = current_by_name.get(name)
        if cur is None:
            if allow_missing:
                print(
                    f"  WARNING: {name}: present in baseline but missing "
                    "from the current report (tolerated by --allow-missing)"
                )
            else:
                failures.append(f"{name}: present in baseline but missing "
                                "from the current report")
            continue
        warn_on_rss_growth(name, base, cur)
        warn_on_speedup_regression(name, base, cur)
        warn_on_serving_drift(name, base, cur, threshold)
        warn_on_scenario_hardware_mismatch(name, base, cur, baseline, current)
        failures.extend(check_latency_gates(name, base, cur, threshold))
        base_ratios = scenario_ratios(base)
        cur_ratios = scenario_ratios(cur)
        for field in base_ratios:
            if field not in cur_ratios:
                failures.append(f"{name}: timed field {field} present in "
                                "baseline but missing from the current report")
                continue
            b, c = base_ratios[field], cur_ratios[field]
            limit = b * (1.0 + threshold)
            status = "FAIL" if c > limit else "ok"
            print(
                f"  {name}.{field}: ratio {c:.3f} vs baseline {b:.3f} "
                f"(limit {limit:.3f}) [{status}]"
            )
            if c > limit:
                failures.append(
                    f"{name}: {field}/seed_engine_ms regressed "
                    f"{(c / b - 1.0) * 100.0:+.1f}% "
                    f"(ratio {c:.3f} vs baseline {b:.3f}, "
                    f"threshold {threshold * 100.0:.0f}%)"
                )
    return failures


def self_test() -> int:
    baseline = {
        "benchmark": "study_engine",
        "scenarios": [
            {
                "name": "replication_sweep_degree10",
                "seed_engine_ms": 100.0,
                "incremental_lazy_ms": 30.0,
                "parallel_lazy_ms": 10.0,
                "outputs_identical": True,
            }
        ],
    }

    failures = 0

    def expect(label: str, current: dict, should_pass: bool) -> None:
        nonlocal failures
        print(f"self-test: {label}")
        problems = compare(baseline, current, DEFAULT_THRESHOLD)
        passed = not problems
        if passed != should_pass:
            failures += 1
            print(f"self-test FAIL: {label}: expected "
                  f"{'pass' if should_pass else 'fail'}, got "
                  f"{'pass' if passed else problems}")

    # Identical report: passes.
    expect("identical report passes", copy.deepcopy(baseline), True)

    # The same ratios on a machine 3x slower overall: passes (timings are
    # normalized, so uniform hardware slowdown is invisible).
    slower = copy.deepcopy(baseline)
    for s in slower["scenarios"]:
        for f in ["seed_engine_ms", *TIMED_FIELDS]:
            s[f] *= 3.0
    expect("uniformly slower machine passes", slower, True)

    # A 30% injected regression on one optimized config: fails (> 25%).
    regressed = copy.deepcopy(baseline)
    regressed["scenarios"][0]["parallel_lazy_ms"] *= 1.30
    expect("30% injected regression fails", regressed, False)

    # A 10% wobble: passes (< 25% threshold).
    wobble = copy.deepcopy(baseline)
    wobble["scenarios"][0]["parallel_lazy_ms"] *= 1.10
    expect("10% wobble passes", wobble, True)

    # Broken correctness: fails even when faster.
    broken = copy.deepcopy(baseline)
    broken["scenarios"][0]["outputs_identical"] = False
    broken["scenarios"][0]["parallel_lazy_ms"] = 1.0
    expect("outputs_identical=false fails", broken, False)

    # Dropped scenario: fails.
    dropped = copy.deepcopy(baseline)
    dropped["scenarios"] = []
    expect("missing scenario fails", dropped, False)

    # A scenario only the current report has is an addition: warn, pass.
    added = copy.deepcopy(baseline)
    added["scenarios"].append({
        "name": "fault_resilience_new",
        "outputs_identical": True,
    })
    expect("current-only scenario passes with a warning", added, True)

    # ... unless its correctness booleans are broken.
    added_broken = copy.deepcopy(added)
    added_broken["scenarios"][1]["outputs_identical"] = False
    expect("current-only scenario with broken outputs fails", added_broken,
           False)

    # Correctness-only scenarios (no seed_engine_ms anchor) compare without
    # timing: matching booleans pass even when informational timings drift.
    corr_baseline = {
        "benchmark": "fault_resilience",
        "scenarios": [
            {"name": "sweep", "sweep_ms": 100.0, "outputs_identical": True}
        ],
    }
    corr_current = copy.deepcopy(corr_baseline)
    corr_current["scenarios"][0]["sweep_ms"] = 500.0
    print("self-test: correctness-only scenario ignores timing drift")
    if compare(corr_baseline, corr_current, DEFAULT_THRESHOLD):
        failures += 1
        print("self-test FAIL: correctness-only scenario should pass")
    corr_current["scenarios"][0]["outputs_identical"] = False
    print("self-test: correctness-only scenario still enforces booleans")
    if not compare(corr_baseline, corr_current, DEFAULT_THRESHOLD):
        failures += 1
        print("self-test FAIL: broken correctness-only scenario should fail")

    # --allow-missing: a baseline-only scenario (subset rerun) passes with a
    # warning instead of failing — but only under the flag.
    scale_baseline = {
        "benchmark": "scale_study",
        "scenarios": [
            {"name": "scale_100000", "outputs_identical": True,
             "peak_rss_mb": 100.0},
            {"name": "scale_1000000", "outputs_identical": True,
             "peak_rss_mb": 900.0},
        ],
    }
    subset = copy.deepcopy(scale_baseline)
    subset["scenarios"] = subset["scenarios"][:1]
    print("self-test: subset rerun passes under --allow-missing")
    if compare(scale_baseline, subset, DEFAULT_THRESHOLD,
               allow_missing=True):
        failures += 1
        print("self-test FAIL: --allow-missing should tolerate the subset")
    print("self-test: subset rerun still fails without --allow-missing")
    if not compare(scale_baseline, subset, DEFAULT_THRESHOLD):
        failures += 1
        print("self-test FAIL: missing scenario must fail by default")

    # Peak RSS is warn-only: a doubled memory envelope must not fail the
    # gate (it prints a warning for a human).
    bloated = copy.deepcopy(scale_baseline)
    bloated["scenarios"][0]["peak_rss_mb"] = 250.0
    print("self-test: peak-RSS growth warns but passes")
    if compare(scale_baseline, bloated, DEFAULT_THRESHOLD):
        failures += 1
        print("self-test FAIL: peak-RSS growth must be warn-only")
    process_baseline = dict(scale_baseline, process_peak_rss_mb=100.0)
    process_bloated = dict(scale_baseline, process_peak_rss_mb=250.0)
    print("self-test: top-level process peak-RSS growth warns but passes")
    if compare(process_baseline, process_bloated, DEFAULT_THRESHOLD):
        failures += 1
        print("self-test FAIL: process peak-RSS growth must be warn-only")

    # Speedup drift is warn-only: a parallel sweep that lost ground against
    # its own serial run warns (for a human to judge — the runner's core
    # count may simply differ) but never fails the gate.
    speedup_baseline = {
        "benchmark": "scale_study",
        "scenarios": [
            {"name": "scale_100000", "outputs_identical": True,
             "gen_ms": 500.0, "gen_pipelined_ms": 400.0,
             "sweep_serial_ms": 1000.0, "sweep_parallel_ms": 400.0,
             "sweep_reshard_ms": 420.0},
        ],
    }
    flat = copy.deepcopy(speedup_baseline)
    flat["scenarios"][0]["sweep_parallel_ms"] = 950.0  # speedup collapsed
    print("self-test: collapsed parallel speedup warns but passes")
    if compare(speedup_baseline, flat, DEFAULT_THRESHOLD):
        failures += 1
        print("self-test FAIL: speedup drift must be warn-only")
    print("self-test: speedup ratio computation")
    ratios = speedup_ratios(speedup_baseline["scenarios"][0])
    if abs(ratios["sweep_parallel_ms/sweep_serial_ms"] - 0.4) > 1e-9 or \
            abs(ratios["gen_pipelined_ms/gen_ms"] - 0.8) > 1e-9:
        failures += 1
        print(f"self-test FAIL: unexpected speedup ratios {ratios}")

    # hardware_threads drift is warn-only: a baseline from the single-core
    # container vs. a multi-core runner prints both values but passes.
    hw_baseline = copy.deepcopy(scale_baseline)
    hw_baseline["hardware_threads"] = 1
    hw_current = copy.deepcopy(scale_baseline)
    hw_current["hardware_threads"] = 8
    print("self-test: hardware_threads mismatch warns but passes")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        problems = compare(hw_baseline, hw_current, DEFAULT_THRESHOLD)
    sys.stdout.write(buf.getvalue())
    if problems:
        failures += 1
        print("self-test FAIL: hardware_threads drift must be warn-only")
    if "hardware_threads differ" not in buf.getvalue() or \
            "1" not in buf.getvalue() or "8" not in buf.getvalue():
        failures += 1
        print("self-test FAIL: hardware mismatch must print both values")
    print("self-test: matching hardware_threads stays silent")
    hw_current["hardware_threads"] = 1
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        problems = compare(hw_baseline, hw_current, DEFAULT_THRESHOLD)
    sys.stdout.write(buf.getvalue())
    if problems or "hardware_threads differ" in buf.getvalue():
        failures += 1
        print("self-test FAIL: matching hardware must pass silently")

    def expect_warning(label: str, base: dict, cur: dict,
                       warning: str | None) -> None:
        """compare(base, cur) passes and prints `warning` (None: prints no
        WARNING line at all)."""
        nonlocal failures
        print(f"self-test: {label}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            problems = compare(base, cur, DEFAULT_THRESHOLD)
        sys.stdout.write(buf.getvalue())
        if problems:
            failures += 1
            print(f"self-test FAIL: {label}: must pass, got {problems}")
        if warning is None and "WARNING" in buf.getvalue():
            failures += 1
            print(f"self-test FAIL: {label}: expected no warning")
        if warning is not None and warning not in buf.getvalue():
            failures += 1
            print(f"self-test FAIL: {label}: expected a warning mentioning "
                  f"{warning!r}")

    # hardware_threads recorded by only one report: the comparison cannot
    # be made, so the gate says which side has it, either way round.
    expect_warning("hardware_threads only in the current report warns",
                   scale_baseline, hw_current,
                   "only the current report records hardware_threads (1)")
    expect_warning("hardware_threads only in the baseline warns",
                   hw_baseline, scale_baseline,
                   "only the baseline records hardware_threads (1)")

    # A top-level scale mismatch (a CI-scale run against a baseline at
    # another scale) warns with both values; a matching scale is silent.
    scaled_baseline = dict(baseline, scale=0.23)
    expect_warning("scale mismatch warns but passes", scaled_baseline,
                   dict(baseline, scale=0.1),
                   "scale differs: baseline ran at 0.23, current at 0.1")
    expect_warning("matching scale stays silent", scaled_baseline,
                   copy.deepcopy(scaled_baseline), None)

    # Serving latency gates: p50/p99 are deterministic simulated seconds,
    # gated directly.
    serving_baseline = {
        "benchmark": "serving_load",
        "hardware_threads": 1,
        "scenarios": [
            {"name": "serve_100000_maxav_conrep", "outputs_identical": True,
             "p50_s": 200.0, "p99_s": 90000.0, "p999_s": 90000.0,
             "goodput_rps": 0.050, "hardware_threads": 1},
        ],
    }

    def expect_serving(label: str, mutate, should_pass: bool,
                       want_warning: str | None = None) -> None:
        nonlocal failures
        current = copy.deepcopy(serving_baseline)
        mutate(current["scenarios"][0])
        print(f"self-test: {label}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            problems = compare(serving_baseline, current, DEFAULT_THRESHOLD)
        sys.stdout.write(buf.getvalue())
        passed = not problems
        if passed != should_pass:
            failures += 1
            print(f"self-test FAIL: {label}: expected "
                  f"{'pass' if should_pass else 'fail'}, got "
                  f"{'pass' if passed else problems}")
        if want_warning and want_warning not in buf.getvalue():
            failures += 1
            print(f"self-test FAIL: {label}: expected a warning mentioning "
                  f"{want_warning!r}")

    expect_serving("30% p99 latency regression fails",
                   lambda s: s.update(p99_s=90000.0 * 1.30), False)
    expect_serving("10% p50 latency wobble passes",
                   lambda s: s.update(p50_s=220.0), True)
    expect_serving("improved latency passes",
                   lambda s: s.update(p50_s=100.0, p99_s=40000.0), True)
    # Exact-zero baseline (e.g. UnconRep p50): any growth is a behavior
    # change and must fail; staying at zero passes.
    serving_baseline["scenarios"][0]["p50_s"] = 0.0
    expect_serving("any growth from an exact-zero baseline fails",
                   lambda s: s.update(p50_s=5.0), False)
    expect_serving("zero-baseline p50 with zero current passes",
                   lambda s: s.update(p50_s=0.0), True)
    serving_baseline["scenarios"][0]["p50_s"] = 200.0
    expect_serving("doubled p999 tail warns but passes",
                   lambda s: s.update(p999_s=180000.0), True,
                   want_warning="tail latency grew")
    expect_serving("halved goodput warns but passes",
                   lambda s: s.update(goodput_rps=0.020), True,
                   want_warning="goodput dropped")
    expect_serving("per-scenario hardware_threads mismatch warns but passes",
                   lambda s: s.update(hardware_threads=8), True,
                   want_warning="serve_100000_maxav_conrep: hardware_threads")

    if failures:
        print(f"self-test: {failures} case(s) failed")
        return 1
    print("self-test OK (29 cases)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=pathlib.Path,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--current", type=pathlib.Path,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="allowed relative ratio regression "
                             "(default %(default)s)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate scenarios present only in the "
                             "baseline (CI reruns a subset of a full-run "
                             "baseline, e.g. BENCH_scale.json)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate against synthetic reports")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required "
                     "(or use --self-test)")

    baseline = load_report(args.baseline)
    current = load_report(args.current)
    print(f"baseline: {args.baseline}")
    print(f"current:  {args.current}")
    failures = compare(baseline, current, args.threshold,
                       allow_missing=args.allow_missing)
    for msg in failures:
        print(f"FAIL: {msg}")
    if failures:
        print(f"check_bench_regression: {len(failures)} failure(s)")
        return 1
    print("check_bench_regression: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
