"""Spans around the calls one library module makes into another.

The library records no spans itself.  For a traced run the benchmark
replaces the names the modules import from each other (for example
``shallowcheck.description.conjugate_local``) with wrappers that open a
span, call the original and close the span.  Spans are kept in memory,
written out once at the end, and turned into per-layer metrics through
self time: a span's duration minus the part of it its children cover.

A binding that no longer exists (a later refactor renamed or removed
it) is listed in :attr:`Tracer.absent` and its metrics read zero; the
run itself goes on.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable

#: ``(module, imported name, span name)``.  The span name is
#: ``<layer>.<operation>``, where the layer is the module that does the work.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    ("shallowcheck.description", "validate", "circuit.validate"),
    ("shallowcheck.description", "embed", "linalg.embed"),
    ("shallowcheck.description", "conjugate_local", "linalg.conjugate"),
    ("shallowcheck.description", "membership_residual", "linalg.residual"),
    ("shallowcheck.assertion", "validate", "circuit.validate"),
    ("shallowcheck.assertion", "embed", "linalg.embed"),
    ("shallowcheck.assertion", "conjugate_local", "linalg.conjugate"),
    ("shallowcheck.assertion", "membership_residual", "linalg.residual"),
    ("shallowcheck.equivalence", "validate", "circuit.validate"),
    ("shallowcheck.equivalence", "concat", "circuit.compose"),
    ("shallowcheck.equivalence", "adjoint", "circuit.compose"),
    ("shallowcheck.equivalence", "choi_extend", "circuit.compose"),
    ("shallowcheck.equivalence", "compute_description", "description.compute_description"),
    ("shallowcheck.equivalence", "initial_state_residuals", "description.initial_state_residuals"),
    ("shallowcheck.equivalence", "check_weak", "equivalence.check_weak"),
)


def _operand_bytes(args, kwargs, result) -> dict:
    """Bytes of the dense operator a conjugation reads: ``16 * 4**w``."""
    mat = args[1] if len(args) > 1 else kwargs.get("mat")
    return {"bytes": int(getattr(mat, "nbytes", 0))}


def _description_shape(args, kwargs, result) -> dict:
    widths = [len(p.support) for p in result.projections]
    return {
        "entries": len(widths),
        "max_width": max(widths, default=0),
        "width_sum": sum(widths),
        "matrix_bytes": sum(p.matrix.nbytes for p in result.projections),
    }


def _static_width(args, kwargs, result) -> dict:
    return {"max_width": max((len(r.support) for r in result), default=0)}


#: Counters taken from a span's arguments or result, by span name.
COUNTERS: dict[str, Callable[..., dict]] = {
    "linalg.conjugate": _operand_bytes,
    "description.compute_description": _description_shape,
    "assertion.verify_static": _static_width,
}


@dataclass(slots=True)
class Span:
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict | None = None


class Tracer:
    """Records spans for the operation numbered :attr:`op`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self.op = 0
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = Span(name, self.op, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span.counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextmanager
    def installed(self, bindings=BINDINGS):
        """Wrap every binding that exists for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in bindings:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.absent.add(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write one JSON object per span, with its index as ``id``."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}, separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    Children are the spans whose ``parent`` is the span's index.  Their
    intervals are clipped to the parent and overlaps are counted once.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


#: Per-layer metric names and units, in report order.
LAYER_UNITS: dict[str, str] = {
    "linalg.conjugate_s": "s",
    "linalg.conjugate_bytes": "B",
    "linalg.conjugate_calls": "count",
    "description.self_s": "s",
    "circuit.validate_calls": "count",
    "circuit.validate_s": "s",
    "circuit.compose_s": "s",
    "linalg.embed_calls": "count",
    "linalg.embed_s": "s",
    "equivalence.self_s": "s",
    "description.entries": "count",
    "description.max_width": "qubits",
    "description.width_sum": "qubits",
    "description.matrix_bytes": "B",
    "assertion.static_self_s": "s",
    "assertion.max_width": "qubits",
    "linalg.residual_s": "s",
}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from the spans of ``n_ops`` operations.

    Times, calls and byte counts are totals divided by ``n_ops``; the
    ``max_width`` metrics are maxima over all operations.
    """
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    widest = defaultdict(int)
    for s, self_s in zip(spans, self_times(spans)):
        layer = s.name.split(".")[0]
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        own[layer + ".*"] += self_s
        calls[s.name] += 1
        for key, value in (s.counts or {}).items():
            counts[(s.name, key)] += value
            widest[(s.name, key)] = max(widest[(s.name, key)], value)
    per_op = {
        "linalg.conjugate_s": total["linalg.conjugate"],
        "linalg.conjugate_bytes": counts[("linalg.conjugate", "bytes")],
        "linalg.conjugate_calls": calls["linalg.conjugate"],
        "description.self_s": own["description.*"],
        "circuit.validate_calls": calls["circuit.validate"],
        "circuit.validate_s": total["circuit.validate"],
        "circuit.compose_s": total["circuit.compose"],
        "linalg.embed_calls": calls["linalg.embed"],
        "linalg.embed_s": total["linalg.embed"],
        "equivalence.self_s": own["equivalence.*"],
        "description.entries": counts[("description.compute_description", "entries")],
        "description.width_sum": counts[("description.compute_description", "width_sum")],
        "description.matrix_bytes": counts[("description.compute_description", "matrix_bytes")],
        "assertion.static_self_s": own["assertion.verify_static"],
        "linalg.residual_s": total["linalg.residual"],
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    out["description.max_width"] = widest[("description.compute_description", "max_width")]
    out["assertion.max_width"] = widest[("assertion.verify_static", "max_width")]
    return {name: out[name] for name in LAYER_UNITS}
