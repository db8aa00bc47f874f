"""``graphs``: the ``repro analyze`` path on Timed Signal Graph text.

One op decodes TSG text (``io.json_io.loads`` or ``io.astg.loads``),
runs ``compute_cycle_time(graph)`` with default options and encodes the
answer as JSON.  Every op has its own topology (seeded chords or a
seeded random graph), so the compile cache stays cold.  Half the ops
carry integer delays (the exact kernel), half float delays (the float
kernel); the topology classes alternate between the two text formats.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Optional

from common import BaseRunner, op_seed

NAME = "graphs"
#: Wall time of one pass on the reference host (2-core container).
PASS_SECONDS = 1.75

RING_STAGES = (100, 200, 400, 800)
RING_TOKENS = (4, 8, 16)
RANDOM_EVENTS = (40, 80, 160)
DELAY_KINDS = ("int", "float")


def topologies() -> List[Dict[str, Any]]:
    shapes: List[Dict[str, Any]] = [
        {"shape": "ring", "n": n, "tokens": tokens}
        for n in RING_STAGES
        for tokens in RING_TOKENS
    ]
    shapes += [{"shape": "random", "n": n} for n in RANDOM_EVENTS]
    for index, shape in enumerate(shapes):
        shape["format"] = "astg" if index % 2 else "json"
    return shapes


def op_classes() -> List[Dict[str, Any]]:
    classes = []
    for topo in topologies():
        for kind in DELAY_KINDS:
            label = (
                "ring%d.%d" % (topo["n"], topo["tokens"])
                if topo["shape"] == "ring" else "random%d" % topo["n"]
            )
            classes.append(dict(
                topo, delay=kind, cls="%s/%s/%s" % (label, kind, topo["format"])
            ))
    return classes


def graph_text(cls: Dict[str, Any], instance: int) -> str:
    """The op's graph as ``.json`` or ``.g`` text."""
    from repro.generators import random_live_tsg, ring_with_chords
    from repro.io import json_io

    if cls["shape"] == "ring":
        graph = ring_with_chords(
            cls["n"], cls["tokens"], chords=cls["n"] // 5, seed=instance
        )
    else:
        graph = random_live_tsg(cls["n"], cls["n"] // 2, seed=instance)
    if cls["delay"] == "float":
        rng = random.Random(instance)
        for arc in graph.arcs:
            graph.set_delay(arc.source, arc.target, round(arc.delay + rng.random(), 6))
    if cls["format"] == "json":
        return json_io.dumps(graph, indent=None)
    # ``.g`` text needs signal transitions: event ``r7`` becomes ``r7+``.
    lines = [".model %s" % graph.name, ".graph"]
    marked = []
    for arc in graph.arcs:
        lines.append("%s+ %s+ %r" % (arc.source, arc.target, arc.delay))
        if arc.marked:
            marked.append("<%s+,%s+>" % (arc.source, arc.target))
    lines += [".marking { %s }" % " ".join(marked), ".end"]
    return "\n".join(lines) + "\n"


def make_ops(seed: int, passes: int) -> List[Dict[str, Any]]:
    ops = []
    for pass_index in range(passes):
        for cls in op_classes():
            instance = op_seed("graphs", seed, pass_index, cls["cls"])
            ops.append({
                "id": len(ops), "cls": cls["cls"], "format": cls["format"],
                "delay": cls["delay"], "text": graph_text(cls, instance),
            })
    return ops


def warmup_ops(seed: int) -> List[Dict[str, Any]]:
    """The smaller half of one pass."""
    return [op for op in make_ops(seed, 1) if "800" not in op["cls"]]


class Runner(BaseRunner):
    """Runs graph ops in the worker process."""

    def __init__(self) -> None:
        from repro.core import compute_cycle_time
        from repro.io import astg, json_io

        self.decoders = {"json": json_io.loads, "astg": astg.loads}
        self.analyze = compute_cycle_time
        self.encode = encode_result

    def trace(self, recorder) -> None:
        self.decoders = {
            name: recorder.wrap("io.decode", function)
            for name, function in self.decoders.items()
        }
        self.analyze = recorder.wrap("core.cycle_time", self.analyze)
        self.encode = recorder.wrap("io.encode", self.encode)

    def run(self, op: Dict[str, Any], slot: int = 0):
        graph = self.decoders[op["format"]](op["text"])
        result = self.analyze(graph)
        return result, self.encode(graph, result)

    @staticmethod
    def digest(op: Dict[str, Any], outcome) -> Dict[str, Any]:
        result, encoded = outcome
        document = json.loads(encoded)
        cycles = document["critical_cycles"]
        return {
            "cycle_time": document["cycle_time"],
            "critical_cycle": cycles[0]["events"] if cycles else None,
            "arcs_relaxed": document["periods"] * len(document["border_events"])
            * document["arcs"],
        }


def encode_result(graph, result) -> str:
    """The analysis as a JSON document (the ``/analyze`` reply shape)."""
    from repro.core.events import event_label
    from repro.io.json_io import encode_number

    return json.dumps({
        "graph": graph.name,
        "events": graph.num_events,
        "arcs": graph.num_arcs,
        "cycle_time": encode_number(result.cycle_time),
        "critical_cycles": [
            {
                "events": [event_label(event) for event in cycle.events],
                "length": encode_number(cycle.length),
                "tokens": cycle.tokens,
            }
            for cycle in result.critical_cycles
        ],
        "border_events": [event_label(e) for e in result.border_events],
        "periods": result.periods,
    })


def check(op: Dict[str, Any], answer: Dict[str, Any]) -> Optional[str]:
    """An exact certificate for the answer (see ``certify.py``)."""
    from certify import certify
    from repro.io import astg, json_io
    from repro.io.json_io import decode_number

    graph = (astg.loads if op["format"] == "astg" else json_io.loads)(op["text"])
    return certify(
        graph, decode_number(answer["cycle_time"]), answer["critical_cycle"],
        exact=op["delay"] == "int",
    )
