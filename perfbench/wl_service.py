"""``service``: a ``repro serve`` daemon with default flags, driven over HTTP.

The worker process spawns the daemon (one server process, default
options) and drives it from two threads, each with its own keep-alive
``ServiceClient`` (retries off), in a closed loop.  One pass of the
seeded request mix holds, in a fixed interleaving:

* ``/analyze`` on fresh chorded rings (n = 100 and 400);
* ``/analyze`` exact repeats of this pass's fresh graphs (result cache);
* ``/netlist`` on rca8, sreg32, mult4 and mult6 with (1, 3) delays;
* ``/montecarlo`` with server defaults (1000 samples, lambda only);
* ``/ptime`` ``check`` and ``lambda-range`` on P-time wraps of
  ``ring_with_chords`` rings (no chords) with n = 20, 60 and 120.

The seed draws the graphs, delays, bounds and sampler seeds only.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from typing import Any, Dict, List, Optional

from common import ROOT, BaseRunner, child_env, op_seed, peak_rss_mb

NAME = "service"
#: Wall time of one pass on the reference host (2-core container).
PASS_SECONDS = 1.8
CONNECTIONS = 2

ENDPOINTS = ("analyze", "analyze_repeat", "netlist", "montecarlo", "ptime")

ANALYZE_STAGES = (100, 400)
NETLIST_CIRCUITS = ("rca8", "sreg32", "mult4", "mult6")
MONTECARLO_TOPOLOGIES = (("ring100", 100, 8), ("ring200", 200, 8))
PTIME_STAGES = (20, 60, 120)
PTIME_MODES = ("check", "lambda-range")


def _interleave(first: List[Dict[str, Any]], second: List[Dict[str, Any]]):
    """Spread both lists evenly over one sequence, ``first`` winning ties."""
    keyed = [((i + 0.5) / len(first), 0, i, item) for i, item in enumerate(first)]
    keyed += [((j + 0.5) / len(second), 1, j, item) for j, item in enumerate(second)]
    return [entry[3] for entry in sorted(keyed, key=lambda entry: entry[:3])]


def pass_classes() -> List[Dict[str, Any]]:
    """The fixed class sequence of one pass (repeats refer back by slot)."""
    fresh = [
        {"endpoint": "analyze", "n": n, "slot": slot}
        for slot, n in enumerate(ANALYZE_STAGES * 4)
    ]
    netlist = [{"endpoint": "netlist", "circuit": c} for c in NETLIST_CIRCUITS]
    montecarlo = [
        {"endpoint": "montecarlo", "topology": label}
        for label, _, _ in MONTECARLO_TOPOLOGIES * 2
    ]
    ptime = [
        {"endpoint": "ptime", "n": n, "mode": mode}
        for n in PTIME_STAGES for mode in PTIME_MODES
    ]
    repeats = [
        {"endpoint": "analyze_repeat", "n": cls["n"], "slot": cls["slot"]}
        for cls in fresh
    ]
    first = _interleave(fresh, netlist[:2] + montecarlo[:2] + ptime[:3])
    second = _interleave(repeats, netlist[2:] + montecarlo[2:] + ptime[3:])
    classes = first + second
    for cls in classes:
        detail = cls.get("circuit") or cls.get("topology") or "n%d" % cls["n"]
        if cls["endpoint"] == "ptime":
            detail += "/" + cls["mode"]
        cls["cls"] = "%s/%s" % (cls["endpoint"], detail)
    return classes


def _ring(n: int, tokens: int, seed: int):
    from repro.generators import ring_with_chords

    return ring_with_chords(n, tokens, chords=n // 5, seed=seed)


def _ptime_base(n: int):
    """A chordless ring: the NPC solvers then take the same number of
    passes on every wrap (chords split the wraps into two cost modes)."""
    from repro.generators import ring_with_chords

    return ring_with_chords(n, max(2, n // 10), chords=0, seed=1000 + n)


def make_ops(seed: int, passes: int) -> List[Dict[str, Any]]:
    from repro.core import compute_cycle_time
    from repro.generators import ptime_wrap
    from repro.io import json_io
    from repro.netlist import write_bench

    import wl_circuits

    sources = {
        circuit: write_bench(wl_circuits.build_network(circuit))
        for circuit in NETLIST_CIRCUITS
    }
    mc_texts = {
        label: json_io.dumps(_ring(n, tokens, 2000 + n), indent=None)
        for label, n, tokens in MONTECARLO_TOPOLOGIES
    }
    witness = {}
    for n in PTIME_STAGES:
        base = _ptime_base(n)
        witness[n] = compute_cycle_time(
            base, keep_simulations=False, backtrack=False
        ).cycle_time
    ops: List[Dict[str, Any]] = []
    for pass_index in range(passes):
        fresh_ids: Dict[int, int] = {}
        for cls in pass_classes():
            instance = op_seed("service", seed, pass_index, cls["cls"],
                               cls.get("slot"))
            op = dict(cls, id=len(ops))
            endpoint = cls["endpoint"]
            if endpoint == "analyze":
                fresh_ids[cls["slot"]] = op["id"]
                op["graph"] = json_io.dumps(_ring(cls["n"], 8, instance), indent=None)
            elif endpoint == "analyze_repeat":
                op["repeat_of"] = fresh_ids[cls["slot"]]
                op["graph"] = ops[op["repeat_of"]]["graph"]
            elif endpoint == "netlist":
                op["source"] = sources[cls["circuit"]]
                op["delay_seed"] = instance
            elif endpoint == "montecarlo":
                op["graph"] = mc_texts[cls["topology"]]
                op["seed"] = instance
            else:
                ptg = ptime_wrap(_ptime_base(cls["n"]), seed=instance)
                op["graph"] = json_io.dumps(ptg, indent=None)
                op["witness"] = json_io.encode_number(witness[cls["n"]])
            ops.append(op)
    return ops


def warmup_ops(seed: int) -> List[Dict[str, Any]]:
    """One request per endpoint and payload family, smallest sizes."""
    seen = set()
    warm = []
    for op in make_ops(seed, 1):
        family = (op["endpoint"], op.get("circuit"), op.get("topology"))
        if op["endpoint"] == "analyze_repeat" or family in seen:
            continue
        seen.add(family)
        warm.append(op)
    return warm


class Runner(BaseRunner):
    """Owns the daemon and the two clients in the worker process."""

    connections = CONNECTIONS

    def __init__(self) -> None:
        from repro.service.client import ServiceClient

        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.clients: List[Any] = []
        try:
            banner = self.daemon.stdout.readline()
            if "listening on" not in banner:
                raise RuntimeError("daemon did not start: %r" % banner)
            url = banner.split()[-1]
            self.clients = [
                ServiceClient(url, retries=0, pool_connections=1)
                for _ in range(CONNECTIONS)
            ]
            if not self.clients[0].wait_until_ready(timeout=60.0):
                raise RuntimeError("daemon never became ready")
        except BaseException:
            self.close()
            raise

    def prepare(self, op: Dict[str, Any]):
        from repro.io import json_io
        from repro.io.json_io import decode_number

        item = dict(op)
        if op["endpoint"] in ("analyze", "analyze_repeat", "montecarlo", "ptime"):
            item["graph"] = json_io.loads(op["graph"])
        if op["endpoint"] == "netlist":
            item["delay"] = (1, 3)
        if op["endpoint"] == "ptime":
            item["witness"] = decode_number(op["witness"])
        return item

    def run(self, item: Dict[str, Any], slot: int = 0):
        client = self.clients[slot]
        endpoint = item["endpoint"]
        if endpoint in ("analyze", "analyze_repeat"):
            return client.analyze(item["graph"])
        if endpoint == "netlist":
            return client.netlist(
                item["source"], delay=item["delay"], seed=item["delay_seed"]
            )
        if endpoint == "montecarlo":
            return client.montecarlo(item["graph"], seed=item["seed"])
        return client.ptime(item["graph"], mode=item["mode"])

    def stats(self) -> Dict[str, Any]:
        return self.clients[0].stats()

    def peak_rss_mb(self) -> float:
        """The daemon's, not this client process's."""
        return peak_rss_mb(self.daemon.pid)

    @staticmethod
    def digest(op: Dict[str, Any], reply) -> Dict[str, Any]:
        from repro.io.json_io import encode_number

        answer = {"cached": bool(reply.get("cached"))}
        endpoint = op["endpoint"]
        if endpoint in ("analyze", "analyze_repeat"):
            answer["cycle_time"] = encode_number(reply["cycle_time"])
            cycles = reply["critical_cycles"]
            answer["critical_cycle"] = cycles[0]["events"] if cycles else None
        elif endpoint == "netlist":
            answer["cycle_time"] = encode_number(reply["cycle_time"])
            answer["critical_cycle"] = (
                reply["critical_cycles"][0] if reply["critical_cycles"] else None
            )
            answer["method"] = reply["method"]
            answer["server_ms"] = sum(reply["timings_ms"].values())
        elif endpoint == "montecarlo":
            answer["summary"] = [
                reply["count"], reply["mean"], reply["std"], reply["min"],
                reply["max"], reply["quantiles"]["p05"],
                reply["quantiles"]["p50"], reply["quantiles"]["p95"],
            ]
        else:
            answer["consistent"] = reply["consistent"]
            for field in ("rate", "lam_min", "lam_max"):
                if reply.get(field) is not None:
                    answer[field] = encode_number(reply[field])
            if "offsets" in reply:
                answer["offsets"] = {
                    name: encode_number(value)
                    for name, value in reply["offsets"].items()
                }
            answer["unbounded"] = reply.get("unbounded")
        return answer

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.daemon.poll() is None:
            self.daemon.terminate()
            try:
                self.daemon.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        if self.daemon.stdout is not None:
            self.daemon.stdout.close()


def check(op: Dict[str, Any], answer: Dict[str, Any]) -> Optional[str]:
    """None when the reply is right, else what is wrong."""
    endpoint = op["endpoint"]
    if endpoint in ("analyze", "analyze_repeat"):
        return _check_analyze(op, answer)
    if endpoint == "netlist":
        return _check_netlist(op, answer)
    if endpoint == "montecarlo":
        return _check_montecarlo(op, answer)
    return check_ptime(op, answer)


@functools.lru_cache(maxsize=None)
def _decoded(text: str):
    """A repeat and its fresh request share one decoded graph."""
    from repro.io import json_io

    return json_io.loads(text)


def _check_analyze(op, answer) -> Optional[str]:
    """An exact certificate on the request's graph (``certify.py``)."""
    from certify import certify
    from repro.io.json_io import decode_number

    return certify(
        _decoded(op["graph"]), decode_number(answer["cycle_time"]),
        answer["critical_cycle"], exact=True,
    )


def _check_netlist(op, answer) -> Optional[str]:
    """The circuits workload's certificate check on the same source."""
    import wl_circuits

    circuit_op = {
        "circuit": op["circuit"], "delay": "interval", "format": "bench",
        "source": op["source"], "delay_seed": op["delay_seed"],
    }
    return wl_circuits.check(circuit_op, answer)


def _check_montecarlo(op, answer) -> Optional[str]:
    """Summary equal to the in-process library sweep (same seed)."""
    import numpy as np

    from repro.analysis import monte_carlo_cycle_time, uniform_spread
    from repro.io import json_io

    result = monte_carlo_cycle_time(
        json_io.loads(op["graph"]), uniform_spread(0.1), samples=1000,
        seed=op["seed"], track_criticality=False,
    )
    values = result.samples
    expected = [
        int(len(values)), float(np.mean(values)), float(np.std(values)),
        float(np.min(values)), float(np.max(values)),
        float(np.quantile(values, 0.05)), float(np.quantile(values, 0.5)),
        float(np.quantile(values, 0.95)),
    ]
    if answer["summary"] != expected:
        return "summary %s != library %s" % (answer["summary"], expected)
    return None


def check_ptime(op, answer) -> Optional[str]:
    """Against the wrap's ground truth: consistent by construction, with
    the base graph's cycle time a feasible rate.  ``check`` replies must
    also carry a valid certificate: their offsets and rate satisfy every
    arc interval exactly."""
    from repro.core.events import event_label
    from repro.io import json_io
    from repro.io.json_io import decode_number

    if answer["consistent"] is not True:
        return "a consistent-by-construction wrap was declared inconsistent"
    witness = decode_number(op["witness"])
    if op["mode"] == "lambda-range":
        low = decode_number(answer["lam_min"])
        high = None if answer.get("lam_max") is None else decode_number(answer["lam_max"])
        if low > witness or (high is not None and witness > high):
            return "witness rate %s outside [%s, %s]" % (witness, low, high)
        return None
    rate = decode_number(answer["rate"])
    if rate > witness:
        return "minimum rate %s above the feasible witness %s" % (rate, witness)
    offsets = {
        name: decode_number(value) for name, value in answer["offsets"].items()
    }
    ptg = json_io.loads(op["graph"])
    for arc, bounds in ptg.arc_bounds():
        source, target = event_label(arc.source), event_label(arc.target)
        if source not in offsets or target not in offsets:
            return "no offset for arc %s -> %s" % (source, target)
        separation = offsets[target] - offsets[source] + rate * arc.tokens
        if not bounds.contains(separation):
            return "arc %s -> %s: %s outside %s" % (
                source, target, separation, bounds
            )
    return None
