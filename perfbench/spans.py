"""In-memory spans around the calls into sqkdsim's modules.

The tracer replaces the names that callers look up (module attributes and
class methods) with wrappers that record one span per call while an op is
being traced, and calls straight through otherwise.  Nothing inside the
program is changed: every span sits at a module boundary.

A span's self time is its duration minus the durations of its direct
children.  Each traced op has a root span, ``cli.op``, whose self time is
the op time that no other span covers.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "cli.op"

#: (module, attribute path, span name).  The attribute path is looked up
#: from the module, so ``analysis.eve_leakage`` on ``sqkdsim.protocol`` is
#: the function the protocol engine calls.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sqkdsim.cli", "load_scenario", "scenario.load"),
    ("sqkdsim.cli", "run_any", "protocol.run"),
    ("sqkdsim.cli", "render_machine_report", "report.render"),
    ("sqkdsim.scenario", "Scenario.build_attack", "attacks.build"),
    ("sqkdsim.attacks", "AttackSpec.validate", "attacks.validate"),
    ("sqkdsim.protocol", "build_ca_tables", "protocol.tables"),
    ("sqkdsim.protocol", "build_bb84_tables", "protocol.tables"),
    ("sqkdsim.protocol", "round_uniforms", "kernels.uniforms"),
    ("sqkdsim.protocol", "simulate_ca", "kernels.walk"),
    ("sqkdsim.protocol", "simulate_bb84", "kernels.walk"),
    ("sqkdsim.protocol", "analysis.eve_leakage", "analysis.leakage"),
    ("sqkdsim.protocol", "analysis.pns_feasibility", "analysis.leakage"),
)

#: every layer span name; each is expected at least once per traced op
LAYERS = tuple(sorted({name for _mod, _attr, name in TARGETS}))


def _table_rows(result) -> Dict[str, int]:
    """Branch-table rows: entries of the cumulative-probability arrays."""
    tables = result[0]
    rows = sum(getattr(tables, f).size for f in vars(tables)
               if f.endswith("_cum"))
    return {"protocol.table_rows": rows}


def _uniform_bytes(result) -> Dict[str, int]:
    """Size of the uniform array, computed from its shape and dtype."""
    return {"kernels.uniform_bytes": result.nbytes}


#: counts taken from a span's result, added to its op's totals
COUNTERS: Dict[str, Callable] = {
    "protocol.tables": _table_rows,
    "kernels.uniforms": _uniform_bytes,
    "attacks.validate": lambda _result: {"attacks.validate_calls": 1},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts per op; install() wraps the targets."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: List[Span] = []
        self.counts: Dict[int, Counter] = defaultdict(Counter)
        self.gaps: List[str] = []
        self._op: Optional[int] = None
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def trace_op(self, op: int, fn: Callable):
        """Run ``fn()`` as traced op ``op`` under a root span."""
        self._op = op
        index = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(index)
            self._op = None

    def _wrap(self, fn: Callable, name: str) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts[self._op].update(counter(result))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is a gap."""
        for module, path, name in self.targets:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.gaps.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self, op: int) -> Dict[str, float]:
        """Self seconds of op ``op``, summed per span name."""
        child = defaultdict(float)
        for span in self.spans:
            if span.op == op and span.parent is not None:
                child[span.parent] += span.duration
        out: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span.op == op:
                out[span.name] += span.duration - child[index]
        return dict(out)

    def op_time(self, op: int) -> float:
        return next(s.duration for s in self.spans
                    if s.op == op and s.parent is None)

    def records(self) -> List[dict]:
        base = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "start": s.start - base, "end": s.end - base,
                 "parent": s.parent, "op": s.op} for s in self.spans]
