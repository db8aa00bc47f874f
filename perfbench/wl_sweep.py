"""``sweep``: ``analysis.montecarlo.monte_carlo_cycle_time`` on fixed topologies.

Each op decodes one of a few fixed topologies from JSON text (as
``repro montecarlo FILE`` loads its file) and samples its delays with
a per-op seed, so the compile cache is hot and the fused sweep plus
the per-sample criticality backtracking carry the work.  Half the ops
use the CLI default (criticality tracked, here 200 samples), half the
server default (lambda only, 20k samples); the two halves take about
the same time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from common import BaseRunner, op_seed

NAME = "sweep"
#: Wall time of one pass on the reference host (2-core container).
PASS_SECONDS = 5.5

SPREAD = 0.1
CRITICALITY_SAMPLES = 200
LAMBDA_SAMPLES = 20_000
#: Rows per op re-run through the per-sample reference loop.
CHECK_ROWS = 3

#: (label, generator, arguments, seed): fixed for every run.
TOPOLOGIES = (
    ("ring40", "ring_with_chords", (40, 4, 8), 101),
    ("random60", "random_live_tsg", (60, 30), 102),
    ("ring80", "ring_with_chords", (80, 8, 16), 103),
    ("ring100", "ring_with_chords", (100, 8, 20), 104),
)
MODES = (
    ("criticality", True, CRITICALITY_SAMPLES),
    ("lambda", False, LAMBDA_SAMPLES),
)


def topology_text(label: str) -> str:
    from repro import generators
    from repro.io import json_io

    for name, generator, arguments, seed in TOPOLOGIES:
        if name == label:
            build = getattr(generators, generator)
            if generator == "ring_with_chords":
                stages, tokens, chords = arguments
                graph = build(stages, tokens, chords=chords, seed=seed)
            else:
                graph = build(*arguments, seed=seed)
            return json_io.dumps(graph, indent=None)
    raise KeyError(label)


def op_classes() -> List[Dict[str, Any]]:
    return [
        {"cls": "%s/%s" % (label, mode), "topology": label,
         "track": track, "samples": samples}
        for label, _, _, _ in TOPOLOGIES
        for mode, track, samples in MODES
    ]


def make_ops(seed: int, passes: int) -> List[Dict[str, Any]]:
    import random

    texts = {label: topology_text(label) for label, _, _, _ in TOPOLOGIES}
    ops = []
    for pass_index in range(passes):
        for cls in op_classes():
            instance = op_seed("sweep", seed, pass_index, cls["cls"])
            rows = random.Random(instance).sample(range(cls["samples"]), CHECK_ROWS)
            ops.append(dict(
                cls, id=len(ops), text=texts[cls["topology"]],
                sample_seed=instance, check_rows=sorted(rows),
            ))
    return ops


def warmup_ops(seed: int) -> List[Dict[str, Any]]:
    """Every class once, at a tenth of the samples."""
    ops = make_ops(seed, 1)
    for op in ops:
        op["samples"] //= 10
        op["check_rows"] = [0]
    return ops


class Runner(BaseRunner):
    """Runs sweep ops in the worker process."""

    def __init__(self) -> None:
        from repro.analysis import montecarlo
        from repro.io import json_io

        self.montecarlo = montecarlo
        self.decode = json_io.loads
        self.sampler = montecarlo.uniform_spread(SPREAD)

    def trace(self, recorder) -> None:
        from repro.core.kernel import BatchSweepResult

        self.decode = recorder.wrap("io.decode", self.decode)
        recorder.patch(
            self.montecarlo, "sample_delay_matrix", "analysis.montecarlo.sample"
        )
        recorder.patch(
            self.montecarlo, "run_border_simulations_batch", "core.kernel.sweep"
        )
        recorder.patch(
            BatchSweepResult, "sample_result", "analysis.montecarlo.criticality"
        )

    def run(self, op: Dict[str, Any], slot: int = 0):
        graph = self.decode(op["text"])
        return self.montecarlo.monte_carlo_cycle_time(
            graph, self.sampler, samples=op["samples"],
            seed=op["sample_seed"], track_criticality=op["track"],
        )

    @staticmethod
    def digest(op: Dict[str, Any], result) -> Dict[str, Any]:
        return {
            "count": int(result.count),
            "rows": [float(result.samples[row]).hex() for row in op["check_rows"]],
            "criticality": criticality_table(result),
        }


def criticality_table(result) -> Dict[str, str]:
    """Per repetitive arc ``"source->target"``: its probability (hex)."""
    return {
        "%s->%s" % pair: float(probability).hex()
        for pair, probability in result.criticality.items()
    }


def check(op: Dict[str, Any], answer: Dict[str, Any]) -> Optional[str]:
    """The answer must be bit-identical to ``method="persample"``.

    Criticality ops rerun the whole sweep per sample (same seed), with
    backtracking, and compare every arc's criticality probability and
    the checked rows.  Lambda-only ops (20k samples) rerun only the
    checked rows: the same seeded delay matrix, one rebound float
    analysis per row.
    """
    import numpy as np

    from repro.analysis.montecarlo import (
        monte_carlo_cycle_time,
        sample_delay_matrix,
        uniform_spread,
    )
    from repro.core import compute_cycle_time
    from repro.io import json_io

    if answer["count"] != op["samples"]:
        return "%d samples, expected %d" % (answer["count"], op["samples"])
    graph = json_io.loads(op["text"])
    if op["track"]:
        reference = monte_carlo_cycle_time(
            graph, uniform_spread(SPREAD), samples=op["samples"],
            seed=op["sample_seed"], track_criticality=True, method="persample",
        )
        expected = criticality_table(reference)
        if answer["criticality"] != expected:
            wrong = sorted(
                arc for arc in set(expected) | set(answer["criticality"])
                if answer["criticality"].get(arc) != expected.get(arc)
            )
            return "criticality of %d arcs differs from per-sample, e.g. %s" % (
                len(wrong), wrong[0]
            )
        return _compare_rows(op, answer, reference.samples)
    if answer["criticality"]:
        return "criticality tracked on a lambda-only op"
    matrix = sample_delay_matrix(
        graph, uniform_spread(SPREAD), op["samples"],
        np.random.default_rng(op["sample_seed"]),
    )
    pairs = [arc.pair for arc in graph.arcs]
    values = {}
    for row in op["check_rows"]:
        trial = graph.copy()
        for pair, value in zip(pairs, matrix[row]):
            trial.set_delay(pair[0], pair[1], float(value))
        values[row] = compute_cycle_time(
            trial, check=False, kernel="float", keep_simulations=False,
            backtrack=False, cache="off",
        ).cycle_time
    return _compare_rows(op, answer, values)


def _compare_rows(op, answer, reference) -> Optional[str]:
    for row, claimed in zip(op["check_rows"], answer["rows"]):
        if float.fromhex(claimed) != float(reference[row]):
            return "row %d: %s != per-sample %r" % (
                row, float.fromhex(claimed), float(reference[row])
            )
    return None
