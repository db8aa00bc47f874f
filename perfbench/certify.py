"""Exact certificate for a claimed cycle time (used by the answer checks).

A claimed lambda is right when no cycle is slower (steady-state
potentials exist at lambda) and one cycle is that slow (the reported
critical cycle's ratio equals lambda).  Both tests run on the graph
alone, independently of the kernel, Howard's iteration and the
extractor's analysis step.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Relative margin on float lambdas for the potentials test, far above
#: float64 rounding and far below any delay difference the inputs have.
FLOAT_MARGIN = 1e-9


def certify(graph, claimed, cycle_names: Optional[Sequence[str]], exact: bool) -> Optional[str]:
    """None when ``claimed`` is the cycle time of ``graph``, else why not."""
    from repro.analysis.performance import steady_state_potentials
    from repro.core.arithmetic import numbers_close
    from repro.core.cycles import make_cycle
    from repro.core.errors import SignalGraphError

    try:
        steady_state_potentials(
            graph, claimed if exact else claimed * (1 + FLOAT_MARGIN)
        )
    except SignalGraphError:
        return "a cycle is slower than the claimed lambda %s" % claimed
    names = {str(event): event for event in graph.events}
    if not cycle_names or any(name not in names for name in cycle_names):
        return "critical cycle missing or not in the graph"
    ratio = make_cycle(graph, [names[name] for name in cycle_names]).effective_length
    if not (ratio == claimed if exact else numbers_close(ratio, claimed)):
        return "critical cycle ratio %s != lambda %s" % (ratio, claimed)
    return None
