"""Steadiness self-check: two sets of runs of the same code, compared.

    python3 perfbench/steady.py --runs 10 [--workloads graphs,sweep]

For each workload, runs two sets of ``--runs`` untraced runs, each run
with its own seed (set 1 uses seeds ``1 .. runs``, set 2 the next
``runs``), at the ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(``(q3 - q1) / median``) and whether the sets agree within the metric's
bound: each set's spread is within the bound, and the two medians
differ, either way, by no more than the bound (as a share of the first
median).  A spread above a third of the bound is flagged but passes.
Raw values go to ``.perfbench/steady-<time>.json``.  Exit code 1 when a
run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

import common


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def one_run(benchmark, workload: str, seed: int) -> Dict[str, Any]:
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    completed = subprocess.run(
        command, cwd=common.ROOT, capture_output=True, text=True, timeout=600
    )
    if completed.returncode != 0:
        raise RuntimeError(
            "%s seed %d failed:\n%s" % (workload, seed, completed.stderr[-2000:])
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s seed %d: %d failed ops" % (workload, seed, result["failed"]))
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, spread)``, the spread being ``(q3 - q1) / median``."""
    q1, q2, q3 = common.quartiles(values)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def verdicts(bound: float, sets: List[List[float]]) -> Tuple[bool, List[str]]:
    """``(agree, notes)`` for one metric's values in the two sets."""
    agree, notes, medians = True, [], []
    for index, values in enumerate(sets):
        _, median, _, spread = summary(values)
        medians.append(median)
        if spread > bound:
            agree = False
            notes.append("set %d spread > bound %.2f" % (index + 1, bound))
        elif spread > bound / 3:
            notes.append("set %d spread > bound/3" % (index + 1))
    first, second = medians
    if first == 0 or abs(second - first) / first > bound:
        agree = False
        notes.append("medians differ by more than %.2f" % bound)
    return agree, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    args = parser.parse_args()

    benchmark = load_benchmark()
    workloads = (
        args.workloads.split(",") if args.workloads
        else [entry["name"] for entry in benchmark["workloads"]]
    )
    raw: Dict[str, List[List[Dict[str, float]]]] = {}
    ok = True
    for workload in workloads:
        sets = []
        for set_index in range(2):
            runs = []
            for run in range(args.runs):
                seed = 1 + set_index * args.runs + run
                started = time.time()
                runs.append(one_run(benchmark, workload, seed))
                print("%s set %d seed %d: %.0f s" % (
                    workload, set_index + 1, seed, time.time() - started),
                    file=sys.stderr, flush=True)
            sets.append(runs)
        raw[workload] = sets
        print("\n%s" % workload)
        print("  %-18s %-34s %-34s %s" % ("metric", "set 1 q1/med/q3 (spread)",
                                          "set 2 q1/med/q3 (spread)", "verdict"))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [[run[name] for run in runs] for runs in sets]
            cells = ["%.4g/%.4g/%.4g (%.3f)" % summary(v) for v in values]
            agree, notes = verdicts(metric["bound"], values)
            ok = ok and agree
            print("  %-18s %-34s %-34s %s" % (
                name, cells[0], cells[1], "; ".join(notes) or "ok"))
    os.makedirs(common.OUT_DIR, exist_ok=True)
    path = os.path.join(common.OUT_DIR, "steady-%d.json" % int(time.time()))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(raw, handle)
    print("\nraw values: %s" % os.path.relpath(path, common.ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
