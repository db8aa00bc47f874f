"""Benchmark of the default analysis paths: one workload, one run.

    python3 perfbench/run.py --workload circuits --seed 1 --seconds 15 --trace 0

Workloads: ``circuits``, ``graphs``, ``sweep`` and ``service`` (see
``perfbench/WORKLOADS.md``).  The run generates its inputs from
``--seed``, sets up ``SETUPS`` times in fresh worker processes (the last
one goes on to measure), runs a fixed number of ops sized from
``--seconds`` as a closed loop, checks every answer and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run measures an
untraced and then a traced window and prints the per-layer metrics,
including the traced window's overhead against the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import common
from wl_service import ENDPOINTS

WORKLOADS = ("circuits", "graphs", "sweep", "service")
#: Offset between a run's seed and the seed of its traced window.
TRACED_SEED_OFFSET = 104_729
#: A worker that outlives this is killed (the run then fails).
WORKER_TIMEOUT_S = 170.0
#: Module layers: name -> (span or phase names) whose calls they sum.
LAYER_SOURCES = {
    "netlist": ("netlist.parse", "netlist.ring_wrap", "netlist.extract"),
    "circuits.extraction": ("circuits.oracle_extract",),
    "io": ("io.decode", "io.encode"),
    "core.validation": ("phase:validate",),
    "core.kernel": ("phase:toposort", "phase:codegen", "phase:run",
                    "core.kernel.sweep"),
    "core.cycle_time": ("core.cycle_time",),
    "baselines.howard": ("baselines.howard_ratio",),
    "analysis.montecarlo": ("analysis.montecarlo.sample",
                            "analysis.montecarlo.criticality"),
    # Counted from the run itself: in-process ptime calls and requests.
    "ptime": (),
    "service": (),
}


def passes_for(module, seconds: float) -> int:
    return max(1, int(round(seconds / module.PASS_SECONDS)))


def start_worker(args, extra: List[str]):
    command = [
        sys.executable, os.path.join(common.ROOT, "perfbench", "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ] + extra
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, process.kill)
    timer.daemon = True
    timer.start()
    line = process.stdout.readline()
    ready = time.perf_counter()
    if not line.startswith("READY "):
        timer.cancel()
        process.kill()
        process.wait()
        raise RuntimeError("worker failed during set-up")
    setup_s = ready - started - float(line.split()[1])
    return process, timer, setup_s


def finish_worker(process, timer) -> str:
    output = process.stdout.read()
    process.stdout.close()
    code = process.wait()
    timer.cancel()
    if code != 0:
        raise RuntimeError("worker exited with code %d" % code)
    return output


def check_all(module, ops: List[Dict[str, Any]], window: Dict[str, Any]) -> List[str]:
    """Check every op's answer; returns one message per failed op."""
    failures = []
    for op, record in zip(ops, window["ops"]):
        if record["error"] is not None:
            message = record["error"]
        else:
            try:
                message = module.check(op, record["answer"])
            except Exception as exc:  # a broken answer must not stop the run
                message = "check raised %s: %s" % (type(exc).__name__, exc)
        record["failed"] = message is not None
        if message is not None:
            failures.append("op %d (%s): %s" % (op["id"], op["cls"], message))
    return failures


def latencies_ms(window: Dict[str, Any]) -> List[float]:
    """Op latencies; a failed op counts as the whole window (the worst)."""
    return [
        (window["wall_s"] if record["failed"] else record["latency_s"]) * 1e3
        for record in window["ops"]
    ]


def end_to_end(window, setups, peak_rss_mb) -> Dict[str, Any]:
    values = latencies_ms(window)
    completed = sum(1 for record in window["ops"] if not record["failed"])
    tail_ms, tail_pct, count = common.tail(values)
    return {
        "setup_s": (common.median(setups), "s"),
        "throughput_per_s": (completed / window["wall_s"], "1/s"),
        "latency_p50_ms": (common.median(values), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }, {"tail_percentile": tail_pct, "tail_samples": count}


def per_layer(workload, ops, window, untraced, ptime_ms) -> Dict[str, Any]:
    spans = window.get("spans", {})
    phases = window.get("phases", {})

    def span_ms(name: str) -> float:
        return spans.get(name, {}).get("self_ms", 0.0)

    def phase_ms(*names: str) -> float:
        return sum(phases.get(name, {}).get("total_ms", 0.0) for name in names)

    answers = [record["answer"] or {} for record in window["ops"]]
    metrics: Dict[str, Any] = {
        "netlist.parse_ms": (span_ms("netlist.parse"), "ms"),
        "netlist.ring_wrap_ms": (span_ms("netlist.ring_wrap"), "ms"),
        "netlist.extract_ms": (span_ms("netlist.extract"), "ms"),
        "circuits.oracle_extract_ms": (span_ms("circuits.oracle_extract"), "ms"),
        "circuits.oracle_share": (
            sum(1 for a in answers if a.get("extraction") == "oracle") / len(ops)
            if workload == "circuits" else 0.0, "ratio"),
        "baselines.howard_ratio_ms": (span_ms("baselines.howard_ratio"), "ms"),
        "core.validate_ms": (phase_ms("validate"), "ms"),
        "core.compile_ms": (phase_ms("toposort", "codegen"), "ms"),
        "core.simulate_ms": (phase_ms("simulate"), "ms"),
        "core.backtrack_ms": (phase_ms("backtrack"), "ms"),
        "core.kernel.arcs_relaxed": (
            sum(a.get("arcs_relaxed", 0) for a in answers), "count"),
        "io.decode_ms": (span_ms("io.decode"), "ms"),
        "io.encode_ms": (span_ms("io.encode"), "ms"),
        "analysis.montecarlo.sample_ms": (
            span_ms("analysis.montecarlo.sample"), "ms"),
        "core.kernel.sweep_ms": (span_ms("core.kernel.sweep"), "ms"),
        "analysis.montecarlo.criticality_ms": (
            span_ms("analysis.montecarlo.criticality"), "ms"),
    }
    sweep_s = span_ms("core.kernel.sweep") / 1e3
    swept = sum(op.get("samples", 0) for op in ops) if workload == "sweep" else 0
    metrics["core.kernel.samples_per_s"] = (
        swept / sweep_s if sweep_s > 0 else 0.0, "1/s")

    cache = window["compile_cache"]
    compile_ratio = cache["reused"] / cache["lookups"] if cache["lookups"] else 0.0
    result_ratio = 0.0
    queued = shed = 0
    if workload == "service":
        before, after = window["stats"]

        def delta(*path):
            low, high = before, after
            for key in path:
                low, high = low.get(key, {}), high.get(key, {})
            return (high or 0) - (low or 0)

        lookups = delta("cache", "compile", "hits") + delta("cache", "compile", "misses")
        reused = delta("cache", "compile", "adopted") + delta("cache", "compile", "rebound")
        compile_ratio = reused / lookups if lookups else 0.0
        hits = delta("cache", "result", "hits")
        result_lookups = hits + delta("cache", "result", "misses")
        result_ratio = hits / result_lookups if result_lookups else 0.0
        # The daemon's lifetime peak queue depth: /stats has no resettable
        # or differenceable queue counter, so this also covers the
        # warm-up and the untraced window.
        queued = after.get("admission", {}).get("peak_waiting", 0)
        shed = delta("requests", "shed")
    metrics["service.cache.compile_hit_ratio"] = (compile_ratio, "ratio")
    metrics["service.cache.result_hit_ratio"] = (result_ratio, "ratio")

    total_ms = sum(latencies_ms(window)) or 1.0
    for endpoint in ENDPOINTS:
        values = [
            latency for op, latency in zip(ops, latencies_ms(window))
            if op.get("endpoint") == endpoint
        ]
        metrics["service.%s.latency_p50_ms" % endpoint] = (common.median(values), "ms")
        metrics["service.%s.share" % endpoint] = (sum(values) / total_ms, "ratio")
    metrics["service.admission.queued"] = (queued, "count")
    metrics["service.shed"] = (shed, "count")
    metrics["service.netlist.server_ms"] = (common.median(
        [a["server_ms"] for a in answers if "server_ms" in a]), "ms")
    metrics["ptime.check_ms"] = (ptime_ms.get("check", 0.0), "ms")
    metrics["ptime.lambda_range_ms"] = (ptime_ms.get("lambda-range", 0.0), "ms")

    probes = untraced["probe_ms"] + window["probe_ms"]
    metrics["host.probe_ms"] = (sum(probes) / len(probes), "ms")
    metrics["trace.overhead_pct"] = (
        100.0 * (window["wall_s"] / untraced["wall_s"] - 1.0), "%")

    calls: Dict[str, List[int]] = {}
    for layer, sources in LAYER_SOURCES.items():
        total = [0, 0]
        for source in sources:
            if source.startswith("phase:"):
                total[0] += phases.get(source[6:], {}).get("calls", 0)
            else:
                row = spans.get(source, {})
                total[0] += row.get("calls", 0)
                total[1] += row.get("failed", 0)
        calls[layer] = total
    if workload == "service":
        calls["service"] = [len(ops), sum(r["failed"] for r in window["ops"])]
        calls["ptime"][0] += ptime_ms.get("calls", 0)
    for layer, (count, failed) in calls.items():
        metrics["%s.calls" % layer] = (count, "count")
        metrics["%s.failed" % layer] = (failed, "count")
    return metrics


def time_ptime_in_process(ops: List[Dict[str, Any]]) -> Dict[str, float]:
    """``ptime.check_ms`` / ``ptime.lambda_range_ms``: the library calls
    behind ``/ptime``, timed here on the same payloads (total ms)."""
    from repro.io import json_io
    from repro.ptime import check_consistency, lambda_range

    calls = {"check": check_consistency, "lambda-range": lambda_range}
    totals: Dict[str, float] = {"calls": 0}
    for op in ops:
        if op.get("endpoint") != "ptime":
            continue
        ptg = json_io.loads(op["graph"])
        start = time.perf_counter()
        calls[op["mode"]](ptg)
        totals[op["mode"]] = totals.get(op["mode"], 0.0) + (
            time.perf_counter() - start) * 1e3
        totals["calls"] += 1
    return totals


def class_summary(ops: List[Dict[str, Any]], window: Dict[str, Any]) -> Dict[str, Any]:
    """Per op class: count, median latency and share of all op time."""
    latencies: Dict[str, List[float]] = {}
    for op, latency in zip(ops, latencies_ms(window)):
        latencies.setdefault(op["cls"], []).append(latency)
    total = sum(sum(values) for values in latencies.values()) or 1.0
    return {
        cls: {"count": len(values), "p50_ms": round(common.median(values), 2),
              "share": round(sum(values) / total, 4)}
        for cls, values in latencies.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--max-ops", type=int, default=None,
        help="cut each window to its first N ops (quick smoke runs only)",
    )
    args = parser.parse_args(argv)

    common.use_source_tree()
    module = __import__("wl_" + args.workload)
    begin = time.perf_counter()
    passes = passes_for(module, args.seconds)
    windows = [{"traced": False, "ops": module.make_ops(args.seed, passes)}]
    if args.trace:
        windows.append({
            "traced": True,
            "ops": module.make_ops(args.seed + TRACED_SEED_OFFSET, passes),
        })
    if args.max_ops:
        for window in windows:
            window["ops"] = window["ops"][: args.max_ops]
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    inputs = os.path.join(common.OUT_DIR, "inputs-%s.json" % tag)
    spans = os.path.join(common.OUT_DIR, "spans-%s.json" % tag)
    timings = {"generate": time.perf_counter() - begin}
    os.makedirs(common.OUT_DIR, exist_ok=True)
    with open(inputs, "w", encoding="utf-8") as handle:
        json.dump(windows, handle)
    try:
        setups = []
        for _ in range(common.SETUPS - 1):
            process, timer, setup_s = start_worker(args, ["--setup-only"])
            finish_worker(process, timer)
            setups.append(setup_s)
        process, timer, setup_s = start_worker(
            args, ["--inputs", inputs, "--spans", spans]
        )
        setups.append(setup_s)
        output = finish_worker(process, timer)
    finally:
        os.unlink(inputs)
    result = json.loads(output.strip().splitlines()[-1])
    timings["workers"] = time.perf_counter() - begin - timings["generate"]

    failures: List[str] = []
    for window, measured in zip(windows, result["windows"]):
        failures += check_all(module, window["ops"], measured)
    timings["check"] = time.perf_counter() - begin - timings["generate"] - timings["workers"]
    for message in failures[:10]:
        print("FAILED " + message, file=sys.stderr)
    untraced = result["windows"][0]
    metrics, tail_info = end_to_end(untraced, setups, result["peak_rss_mb"])
    if args.trace:
        ptime_ms = time_ptime_in_process(windows[1]["ops"])
        metrics = per_layer(
            args.workload, windows[1]["ops"], result["windows"][1], untraced,
            ptime_ms,
        )
    attempted = sum(len(window["ops"]) for window in windows)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "ops": len(windows[0]["ops"]),
        "window_s": untraced["wall_s"],
        "setups_s": setups,
        "latency_tail": tail_info,
        "host_probe_ms": untraced["probe_ms"],
        "classes": class_summary(windows[0]["ops"], untraced),
        "timings_s": timings,
        "environment": common.environment(),
        "spans_file": os.path.relpath(spans, common.ROOT) if args.trace else None,
    }
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
