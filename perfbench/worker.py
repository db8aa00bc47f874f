"""One measured process of a benchmark run (started by ``run.py``).

Sets up (imports, daemon for ``service``, untimed warm-up on another
seed), prints ``READY <seconds spent generating warm-up inputs>``, and
with ``--setup-only`` stops there.  Otherwise it loads the run's inputs,
runs each window as a closed loop, and prints one JSON line with the
per-op latencies, digested answers and, for a traced window, the
per-layer figures.  Answers are digested after the window closes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

import common


def load_workload(name: str):
    return __import__("wl_" + name)


def run_window(runner, items: List[Any], digest, recorder=None) -> Tuple[list, float]:
    """Closed loop over ``items``; returns per-op records and wall time.

    A record is ``(latency_s, digested answer or None, error or None,
    start offset in the window)``.
    ``digest(index, result)`` runs after the op's clock stops, so only
    the small digest, not the raw result, stays alive.
    ``runner.connections`` loops run concurrently, each on its own slot.
    """
    records: List[Any] = [None] * len(items)
    counter = itertools.count()

    def loop(slot: int) -> None:
        while True:
            index = next(counter)
            if index >= len(items):
                return
            span = (
                recorder.span("op", op_id=index) if recorder is not None
                else contextlib.nullcontext()
            )
            start = time.perf_counter()
            try:
                with span:
                    result = runner.run(items[index], slot)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                result, error = None, "%s: %s" % (type(exc).__name__, exc)
            end = time.perf_counter()
            latency = end - start
            if error is None:
                try:
                    result = digest(index, result)
                except Exception as exc:  # an unreadable answer fails the op
                    result, error = None, "digest %s: %s" % (type(exc).__name__, exc)
            records[index] = (latency, result, error, start - begin)

    connections = runner.connections
    gc.collect()
    begin = time.perf_counter()
    if connections == 1:
        loop(0)
    else:
        threads = [
            threading.Thread(target=loop, args=(slot,), daemon=True)
            for slot in range(connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return records, time.perf_counter() - begin


def compile_cache_counts() -> Dict[str, int]:
    from repro.service.cache import service_cache_stats

    stats = service_cache_stats()["compile"]
    return {
        "lookups": stats.get("hits", 0) + stats.get("misses", 0)
        + stats.get("disk_hits", 0),
        "reused": stats.get("adopted", 0) + stats.get("rebound", 0),
    }


def measure(module, runner, ops: List[Dict[str, Any]], recorder=None) -> Dict[str, Any]:
    """One timed window over ``ops``, traced into ``recorder`` if given."""
    from repro.obs.profile import PhaseProfiler, profile_phases

    items = [runner.prepare(op) for op in ops]
    traced = recorder is not None
    profiler = PhaseProfiler() if traced else None
    if traced:
        runner.trace(recorder)
    stats_before = runner.stats()
    cache_before = compile_cache_counts()
    probe_before = common.host_probe_ms()
    scope = profile_phases(profiler) if traced else contextlib.nullcontext()
    with scope:
        records, wall = run_window(
            runner, items,
            lambda index, result: module.Runner.digest(ops[index], result),
            recorder,
        )
    probe_after = common.host_probe_ms()
    cache_after = compile_cache_counts()
    window: Dict[str, Any] = {
        "wall_s": wall,
        "probe_ms": [probe_before, probe_after],
        "ops": [
            {
                "latency_s": latency,
                "start_s": start,
                "error": error,
                "answer": answer,
            }
            for latency, answer, error, start in records
        ],
        "compile_cache": {
            key: cache_after[key] - cache_before[key] for key in cache_after
        },
        "stats": [stats_before, runner.stats()],
    }
    if traced:
        recorder.unpatch()
        window["spans"] = recorder.layers()
        window["phases"] = {
            name: {"total_ms": profiler.totals[name] * 1e3,
                   "calls": profiler.counts.get(name, 0)}
            for name in profiler.totals
        }
    return window


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    common.use_source_tree()
    module = load_workload(args.workload)
    import repro.analysis  # noqa: F401  (imports are part of set-up)
    import repro.netlist  # noqa: F401
    import repro.service.cache  # noqa: F401

    generate_start = time.perf_counter()
    warm = module.warmup_ops(args.seed + common.WARMUP_SEED_OFFSET)
    generate_s = time.perf_counter() - generate_start
    runner = module.Runner()
    try:
        records, _ = run_window(
            runner, [runner.prepare(op) for op in warm],
            lambda index, result: module.Runner.digest(warm[index], result),
        )
        for op, (_, _, error, _) in zip(warm, records):
            if error is not None:
                print("warm-up op %s failed: %s" % (op["cls"], error), file=sys.stderr)
        print("READY %.6f" % generate_s, flush=True)
        if args.setup_only:
            return 0
        with open(args.inputs, "r", encoding="utf-8") as handle:
            windows = json.load(handle)
        recorder = common.SpanRecorder()
        results = [
            measure(module, runner, window["ops"],
                    recorder if window["traced"] else None)
            for window in windows
        ]
        peak = runner.peak_rss_mb()
    finally:
        runner.close()
    if recorder.spans and args.spans:
        recorder.dump(args.spans)
    print(json.dumps({"windows": results, "peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
