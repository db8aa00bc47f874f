"""Tests of the benchmark itself (not collected by the repo's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Tiny seeded runs of every workload must print every metric of
``BENCHMARK.json`` with its unit and fail no op; changing the seed must
change the instances but not the op classes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

common.use_source_tree()

with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
#: Ops per window in the tiny runs (the circuits ladder starts with c17,
#: about 2 s per op on the oracle extractor).
TINY_OPS = {"circuits": 3, "graphs": 12, "sweep": 2, "service": 16}


def tiny_run(workload: str, trace: int):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--max-ops", str(TINY_OPS[workload])],
        cwd=common.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    info = json.loads(lines[-2][2:])
    return info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_and_fails_no_op(workload, trace):
    info, result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == TINY_OPS[workload] * (1 + trace)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])
    assert info["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_instances_not_classes(workload):
    module = __import__("wl_" + workload)

    def classes(ops):
        counts = {}
        for op in ops:
            counts[op["cls"]] = counts.get(op["cls"], 0) + 1
        return counts

    def instance(op):
        return {key: value for key, value in op.items() if key not in ("id",)}

    first, second = module.make_ops(1, 1), module.make_ops(2, 1)
    assert classes(first) == classes(second)
    assert [op["cls"] for op in first] == [op["cls"] for op in second]
    changed = sum(instance(a) != instance(b) for a, b in zip(first, second))
    assert changed == len(first)
    assert module.make_ops(1, 1) == first


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 33))
    value, percentile, count = common.tail(values)
    assert (value, count) == (22, 32)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * 22 / 32)


def test_self_time_subtracts_child_spans():
    recorder = common.SpanRecorder()
    recorder.spans = [
        [0, "parent", 0.0, 1.0, None, 0, False],
        [1, "child", 0.2, 0.5, 0, 0, False],
        [2, "child", 0.4, 0.7, 0, 0, True],
    ]
    layers = recorder.layers()
    assert layers["parent"]["self_ms"] == pytest.approx(500.0)
    assert layers["child"]["calls"] == 2
    assert layers["child"]["failed"] == 1


def test_sweep_check_compares_criticality_with_persample():
    import wl_sweep

    op = next(op for op in wl_sweep.make_ops(1, 1) if op["track"])
    result = wl_sweep.Runner().run(op)
    answer = wl_sweep.Runner.digest(op, result)
    assert wl_sweep.check(op, answer) is None
    arc = next(a for a, p in answer["criticality"].items() if float.fromhex(p) > 0)
    broken = dict(answer, criticality=dict(answer["criticality"], **{arc: "0x0.0p+0"}))
    assert "criticality" in wl_sweep.check(op, broken)


def test_steady_sets_must_agree_either_way():
    import steady

    same = [1.0, 1.01, 0.99, 1.0]
    assert steady.verdicts(0.25, [same, same]) == (True, [])
    assert not steady.verdicts(0.25, [same, [0.6] * 4])[0]
    assert not steady.verdicts(0.25, [same, [1.4] * 4])[0]
    assert not steady.verdicts(0.25, [[1.0, 2.0, 1.0, 2.0], [1.5] * 4])[0]
