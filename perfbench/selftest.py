#!/usr/bin/env python3
"""Self-test of the benchmark at toy size (5 000 users).

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload it checks that:
  * an end-to-end run and a traced run each print, as their last line, a
    result with exactly the keys correct/attempted/failed/metrics, and every
    metric BENCHMARK.json names for that mode, with its unit;
  * both runs are correct, at the default seed and at a second seed;
  * the traced run's layer spans plus trace.unattributed_s sum to
    trace.replay_s;
  * a wrong expected checksum fails every operation (failed_frac = 1) and
    makes the command exit nonzero.
Exits nonzero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = ["--users", "5000", "--seconds", "1"]
# Disjoint spans the replay sums into trace.replay_s (replay.hpp).
LAYER_SPANS = ["placement.select_s", "sim.evaluate_s", "metrics.delay_s",
               "sim.reduce_s", "serve.workload_s", "net.fault.sessions_s",
               "interval.union_s", "net.replica_sim_s"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--trace", str(trace)] + TOY + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("FAIL %s: no output\n%s" % (cmd, proc.stderr))
    return proc.returncode, json.loads(lines[-1])


def check(ok, what):
    if not ok:
        sys.exit("FAIL " + what)
    print("ok   " + what)


def check_metrics(result, declared, what):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          what + ": result keys")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    check(printed == {m["name"]: m["unit"] for m in declared},
          what + ": every declared metric printed with its unit")


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in (w["name"] for w in bench["workloads"]):
        code, res = run(w, 0)
        check_metrics(res, bench["end_to_end"], w + " end to end")
        check(code == 0 and res["correct"] and res["failed"] == 0,
              w + " end to end: correct")

        code, res = run(w, 1)
        check_metrics(res, bench["per_layer"], w + " traced")
        check(code == 0 and res["correct"] and res["failed"] == 0,
              w + " traced: replay reproduces the engine checksum")
        m = {k: v["value"] for k, v in res["metrics"].items()}
        total = sum(m[k] for k in LAYER_SPANS) + m["trace.unattributed_s"]
        check(abs(total - m["trace.replay_s"]) <= 1e-9 * m["trace.replay_s"],
              w + " traced: layer spans + unattributed = replay")

        code, res = run(w, 1, "--seed", "7")
        check(code == 0 and res["correct"] and res["failed"] == 0,
              w + " traced, second seed: parallel, serial and replay agree")

        code, res = run(w, 0, "--expect-checksum", "1")
        check(code != 0 and not res["correct"] and
              res["failed"] == res["attempted"] > 0,
              w + " wrong checksum: failed_frac = 1, nonzero exit")
    print("selftest passed")


if __name__ == "__main__":
    main()
