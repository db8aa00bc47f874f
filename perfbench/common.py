"""Shared pieces of the benchmark: paths, statistics, spans, host probe.

Nothing here imports ``repro``; the orchestrator (``run.py``) and the
measured worker (``worker.py``) both build on it.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch output of a run: input files, span dumps (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: How many times a run sets up; ``setup_s`` is their median.
SETUPS = 3
#: Offset between a run's seed and the seed of its untimed warm-up.
WARMUP_SEED_OFFSET = 7_919_000_003


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: no src/repro under %s; run from a full checkout" % ROOT
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for processes that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + previous if previous else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def op_seed(*parts: Any) -> int:
    """A stable 31-bit seed derived from ``parts`` (no ``hash()``)."""
    value = 2166136261
    for byte in json.dumps(parts).encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value & 0x7FFFFFFF


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, N)``: the highest percentile of ``values``
    with at least 10 samples beyond it.

    The value is the 11th largest sample, so exactly 10 lie above it;
    its percentile is ``100 * (N - 10) / N``.  Below 11 samples the
    largest sample stands in, at percentile 100.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    if count < 11:
        return float(ordered[-1]), 100.0, count
    return float(ordered[count - 11]), 100.0 * (count - 10) / count, count


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop, in ms (host-noise probe)."""
    start = time.perf_counter()
    total = 0
    for index in range(400_000):
        total += (index * 7) % 13
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (``self`` by default), in MiB."""
    path = "/proc/%s/status" % ("self" if pid is None else pid)
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in %s" % path)


class BaseRunner:
    """The interface every workload's ``Runner`` offers the worker.

    A workload module has ``make_ops``, ``warmup_ops``, a ``Runner``
    built on this class (``run`` and ``digest`` are its own) and a
    module-level ``check(op, answer)``.
    """

    #: Closed loops run concurrently, each on its own slot.
    connections = 1

    def prepare(self, op: Dict[str, Any]) -> Any:
        """The op as ``run`` executes it (built before any clock runs)."""
        return op

    def trace(self, recorder: "SpanRecorder") -> None:
        """Patch the layers' call sites to record spans into ``recorder``."""

    def stats(self) -> Optional[Dict[str, Any]]:
        """Program counters read before and after each window."""
        return None

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that does the work."""
        return peak_rss_mb()

    def close(self) -> None:
        """Stop everything the runner started."""


def environment() -> Dict[str, Any]:
    """nproc and library versions, recorded with every result."""
    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    for name in ("numpy", "scipy", "networkx"):
        try:
            module = __import__(name)
            info[name] = getattr(module, "__version__", "?")
        except ImportError:
            info[name] = None
    return info


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans around calls into the program's layers.

    A span is ``[id, name, start, end, parent id, op id, failed]``;
    spans nest per thread, and every span carries the id of the op
    (one library call or HTTP request) it ran under.  Nothing is
    written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op_id: Optional[int] = None) -> "_Span":
        return _Span(self, name, op_id)

    def wrap(self, name: str, function: Callable) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            with _Span(recorder, name, None):
                return function(*args, **kwargs)

        return traced

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a traced wrapper (undo: unpatch)."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, failed, total and self time (ms).

        Self time is a span's duration minus the part of it covered by
        its child spans.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append((span[2], span[3]))
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            duration = span[3] - span[2]
            covered = _union_length(children.get(span[0], ()))
            row = table.setdefault(
                span[1], {"calls": 0, "failed": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            row["calls"] += 1
            row["failed"] += 1 if span[6] else 0
            row["total_ms"] += duration * 1e3
            row["self_ms"] += max(0.0, duration - covered) * 1e3
        return table

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "op", "failed")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


class _Span:
    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: SpanRecorder, name: str, op_id: Optional[int]):
        self._recorder = recorder
        self._record = [None, name, 0.0, 0.0, None, op_id, False]

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        stack = recorder._stack()
        record = self._record
        record[0] = next(recorder._ids)
        if stack:
            parent = stack[-1]
            record[4] = parent[0]
            if record[5] is None:
                record[5] = parent[5]
        stack.append(record)
        recorder.spans.append(record)
        record[2] = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        record = self._record
        record[3] = time.perf_counter()
        record[6] = exc_type is not None
        self._recorder._stack().pop()


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for low, high in sorted(intervals):
        if end is None or low > end:
            total += high - low
            end = high
        elif high > end:
            total += high - end
            end = high
    return total
