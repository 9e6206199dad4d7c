"""Constraint-based descriptions of shallow-circuit output states.

For a depth-``d`` circuit on ``n`` qubits, the output state on the
all-zeros input is characterized exactly by a tuple of ``n`` commuting
local projections, one per qubit.  Entry ``t`` starts as the projector
onto ``|0>`` on qubit ``t``; each layer enlarges its support by the
qubits of every overlapping gate (the backward light cone) and
conjugates the projector by those gates.  Supports stay bounded by the
light-cone width, so the whole computation is linear in ``n`` for fixed
depth even though the state itself has ``2**n`` amplitudes.

The intersection of the embedded projections is exactly the span of the
output state, which is what makes the tuple useful: membership of the
all-zeros state in every projection decides weak circuit equivalence,
and the tuple doubles as a machine-checkable assertion about the state.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .circuit import Circuit, Gate, _require_int, matrix_from_json, validate
from .cone import ZERO_PROJECTOR, ConeStep, walk_light_cones
from .config import support_cap
from .errors import CapacityError, DomainError, SchemaError, ValidationError
from .linalg import (
    ErrorTriple,
    _TILE,
    _as_frozen,
    _conjugate_hermitian,
    _integral,
    apply_layer,
    conjugate_layer,
    embed,
    membership_residual,
    zero_state,
)

__all__ = [
    "Description",
    "LocalProjection",
    "commutation_check",
    "commutator_deviations",
    "compute_description",
    "description_from_json",
    "description_to_json",
    "initial_state_residuals",
    "projection_entries_from_json",
]


@dataclass(frozen=True, eq=False)
class LocalProjection:
    """A projection matrix bound to a sorted, duplicate-free support.

    The matrix is stored read-only.  It is kept as given when it is a
    complex array that no writable array shares memory with, and copied
    otherwise, so a caller's writable array never aliases the entry.
    """

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        support = tuple(_integral(q, "a support qubit") for q in self.support)
        if not support:
            raise DomainError("a local projection needs a non-empty support")
        if list(support) != sorted(set(support)):
            raise DomainError(
                f"support must be sorted and duplicate-free, got {support}"
            )
        if support[0] < 0:
            raise DomainError(f"support must hold no negative qubit, got {support}")
        matrix = _as_frozen(self.matrix)
        dim = 1 << len(support)
        if matrix.shape != (dim, dim):
            raise DomainError(
                f"projection on {len(support)} qubit(s) needs a {dim}x{dim} "
                f"matrix, got shape {matrix.shape}"
            )
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", matrix)

    def __repr__(self) -> str:
        return f"LocalProjection(support={self.support})"


@dataclass(frozen=True, eq=False)
class Description:
    """The per-qubit tuple of local projections for one circuit.

    Entry ``t`` originates from qubit ``t``; supports of different
    entries may coincide, and the tuple always has exactly ``n_qubits``
    entries.  Deduplication would not change what the tuple describes
    and is intentionally not performed.
    """

    n_qubits: int
    projections: tuple[LocalProjection, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integral(self.n_qubits, "n_qubits"))
        object.__setattr__(self, "projections", tuple(self.projections))

    def __repr__(self) -> str:
        return (
            f"Description(n_qubits={self.n_qubits}, "
            f"entries={len(self.projections)})"
        )


def compute_description(c: Circuit, cap: int | None = None) -> Description:
    """Compute the tuple of local projections describing ``c``'s output.

    Parameters
    ----------
    c
        A valid circuit.
    cap
        Support cap override, an integer of at least 1; defaults to the
        configured cap.

    Returns
    -------
    Description
        Exactly ``c.n_qubits`` entries.  Entry ``t``'s support is the
        backward light cone of qubit ``t`` and its matrix is the
        projector obtained by conjugating ``|0><0|`` through every
        overlapping gate, layer by layer.

    Raises
    ------
    ValidationError
        If the circuit has structural violations.
    CapacityError
        If any support would exceed the cap; the message names the
        originating qubit, the layer, and the support size reached.

    Notes
    -----
    Supports come from :func:`~shallowcheck.cone.walk_light_cones`, the
    walker the checks share.  At each layer the overlapping gates split
    in two: those inside the current support and those that reach a new
    qubit.  The inside gates conjugate the matrix on its current
    support; then the matrix is embedded once into the grown support and
    the straddling gates conjugate it there, so only the gates at the
    cone's edge act on the grown matrix.  Since
    ``(G⊗I)(P⊗I)(G⊗I)† = (GPG†)⊗I`` and the layer's gates are disjoint,
    this equals conjugating by the embedded tensor product of the
    layer's gates.  Each half is one
    :func:`~shallowcheck.linalg.conjugate_layer` call: one matrix product
    per gate on the row axes and one on the column axes, with the tensor
    permuted at most once before and once after.  The last step, which
    reaches the final support, embeds and conjugates only the tiles on
    or above the diagonal, split on idle qubits of that layer, and
    mirrors them, so the full embedded matrix is never built and each
    entry is exactly Hermitian; diagonal tiles are re-symmetrized as
    ``(T + T†)/2``.  An entry of at most ``2^16`` amplitudes (width 8)
    is one tile, conjugated whole and re-symmetrized as ``(P + P†)/2``.
    Within a call, gates are applied in order of smallest qubit index;
    this and the tiling pin the output bits exactly for a given input.
    This is the dense ``16·4^w``-byte path; the checks use the
    cone-state kernel instead and this function is their reference.

    Validation and the light-cone walk run on the calling thread, so a
    capacity error comes before any entry is built.  When some entry's
    final matrix holds at least ``2^16`` amplitudes (one tile), the
    calling thread and one pool thread per further CPU take entries,
    widest first, from one shared queue; their matrix products release
    the interpreter lock and overlap.  The CPUs are those of
    ``os.sched_getaffinity``, divided by the threads each BLAS call runs
    on: the count ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` sets, or every CPU when none is set.  Each
    entry's final matrix is allocated untouched on the calling thread
    before the pool starts, so pool threads allocate only temporaries,
    and glibc's per-thread arenas keep no freed output resident.
    Narrower descriptions, whose entries spend their time in Python
    under the lock, and hosts with no CPU to spare are built serially
    with no thread started.  The output is bit-identical whichever
    thread builds an entry.
    """
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    if cap is None:
        cap = support_cap()
    n = c.n_qubits
    cones = walk_light_cones(c, [(t,) for t in range(n)], "support of qubit {}", cap)
    # Amplitudes of each entry's final matrix, 0 for an entry no gate touches.
    sizes = [1 << 2 * len(steps[-1][1]) if steps else 0 for steps in cones]
    workers = _pool_threads() if max(sizes, default=0) >= _TILE else 0
    if not workers:
        return Description(n, tuple(_entry(t, s, None) for t, s in enumerate(cones)))
    return Description(n, _pooled(cones, sizes, workers))


#: Variables that set the BLAS's thread count: OpenBLAS's and MKL's own
#: before OpenMP's, which both read last.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _pool_threads() -> int:
    """Pool threads to start besides the caller: one per CPU left once
    each thread's BLAS calls have the threads they run on.

    The BLAS runs on the count its environment sets, or on every CPU
    when none is set, so then no pool thread is started: threads that
    contend with the BLAS's own measured slower than one thread.
    """
    for name in _BLAS_THREADS:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            # ``sched_getaffinity`` is missing on macOS and Windows.
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:
                cpus = os.cpu_count() or 1
            return max(0, cpus // int(value) - 1)
    return 0


def _pooled(
    cones: Sequence[Sequence[ConeStep]], sizes: Sequence[int], workers: int
) -> tuple[LocalProjection, ...]:
    """The entries of :func:`compute_description`, built by the calling
    thread and ``workers`` pool threads, widest first.

    Each final matrix is allocated here, untouched, so a pool thread
    allocates only temporaries and no output stays in its arena.  After
    the first exception no thread takes another entry, and it is
    raised once every thread has stopped.
    """
    # Imported here: a process that never builds a wide description
    # does not load the executor and the logging module it imports.
    from concurrent.futures import ThreadPoolExecutor

    outs = [
        np.empty((1 << len(steps[-1][1]),) * 2, dtype=complex) if steps else None
        for steps in cones
    ]
    entries: list[LocalProjection | None] = [None] * len(cones)
    todo = iter(sorted(range(len(cones)), key=lambda t: -sizes[t]))
    lock = threading.Lock()
    failure: list[BaseException] = []

    def build() -> None:
        while True:
            with lock:
                t = None if failure else next(todo, None)
            if t is None:
                return
            try:
                entries[t] = _entry(t, cones[t], outs[t])
            except BaseException as e:
                with lock:
                    failure.append(e)
                return

    with ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(build) for _ in range(workers)]
        build()
        for f in futures:
            f.result()
    if failure:
        raise failure[0]
    return tuple(entries)


def _entry(
    t: int, steps: Sequence[ConeStep], out: np.ndarray | None
) -> LocalProjection:
    """Entry ``t`` from its light-cone ``steps``, the last step writing
    into ``out`` when one is given."""
    support: tuple[int, ...] = (t,)
    p = ZERO_PROJECTOR
    for k, (touched, grown) in enumerate(steps, 1):
        old = set(support)
        inside = [g for g in touched if old.issuperset(g.qubits)]
        straddling = [g for g in touched if not old.issuperset(g.qubits)]
        # A last step that does not grow hands its inside gates to the
        # final conjugation instead.
        if inside and (straddling or k < len(steps)):
            p = _conjugate(p, inside, support)
        if k == len(steps):
            # The last step reaches the final support: only the tiles on
            # or above the diagonal are conjugated there.
            p = _conjugate_hermitian(
                p, support, grown, _layer(straddling or inside, grown), out
            )
            p.setflags(write=False)
        elif grown != support:
            # Two statements, so the old matrix is freed before the grown
            # one is conjugated, keeping the peak as it was.
            p = embed(p, support, grown)
            p = _conjugate(p, straddling, grown)
        support = grown
    return LocalProjection(support, p)


def _conjugate(
    p: np.ndarray, gates: Sequence[Gate], support: tuple[int, ...]
) -> np.ndarray:
    """Conjugate ``p``, a matrix on ``support``, by disjoint ``gates`` within it."""
    return conjugate_layer(p, _layer(gates, support), len(support))


def _layer(
    gates: Sequence[Gate], support: tuple[int, ...]
) -> list[tuple[np.ndarray, list[int]]]:
    """``(matrix, positions)`` of each gate, by its qubits' places in ``support``."""
    position = {q: i for i, q in enumerate(support)}
    return [(g.matrix, [position[q] for q in g.qubits]) for g in gates]


def initial_state_residuals(d: Description) -> list[ErrorTriple]:
    """Residual of the all-zeros state against each projection.

    Entry ``t`` is ``membership_residual(P_t, |0...0>)`` on ``P_t``'s own
    support, equivalently the deviation of column 0 of the matrix from
    the first standard basis vector.  All-zero triples mean the
    all-zeros state satisfies the whole description.
    """
    return [
        membership_residual(p.matrix, zero_state(len(p.support)))
        for p in d.projections
    ]


def commutator_deviations(
    entries: Sequence[LocalProjection],
    cap: int | None = None,
) -> Iterator[tuple[int, int, float]]:
    """Yield ``(i, j, deviation)`` for every overlapping pair ``i < j``.

    Each overlapping pair is embedded into its union support and the
    deviation is the entrywise maximum of ``AB - BA``; pairs with
    disjoint supports commute exactly and are skipped.

    Raises
    ------
    DomainError
        If ``cap`` is not an integer, or below 1, which no support can meet.
    CapacityError
        If a union support exceeds the cap.
    """
    if cap is None:
        cap = support_cap()
    if _integral(cap, "the support cap") < 1:
        raise DomainError(f"the support cap must be at least 1, got {cap}")
    for i, a in enumerate(entries):
        set_a = set(a.support)
        for j in range(i + 1, len(entries)):
            b = entries[j]
            if not set_a.intersection(b.support):
                continue
            union = sorted(set_a.union(b.support))
            if len(union) > cap:
                raise CapacityError(
                    f"union support of entries {i} and {j} spans "
                    f"{len(union)} qubit(s), exceeding the support cap of {cap}",
                    size=len(union),
                    cap=cap,
                )
            position = {q: k for k, q in enumerate(union)}
            width = len(union)
            # ``A`` on the row axes of ``B`` is ``AB``, ``A.T`` on its columns ``BA``.
            b_tensor = embed(b.matrix, b.support, union).reshape((2,) * (2 * width))
            rows = [position[q] for q in a.support]
            ab = apply_layer(b_tensor, [(a.matrix, rows)])
            ba = apply_layer(b_tensor, [(a.matrix.T, [width + r for r in rows])])
            yield i, j, float(np.max(np.abs(ab - ba)))


def commutation_check(d: Description, cap: int | None = None) -> float:
    """Largest pairwise commutator norm among overlapping projections.

    Returns the maximum of :func:`commutator_deviations` over all pairs
    (0.0 when nothing overlaps); callers apply their own bound.

    Raises
    ------
    DomainError
        If ``cap`` is not an integer or is below 1, even when no entries
        overlap.
    CapacityError
        If a union support exceeds the cap.
    """
    # Entries with identical support and bit-identical matrix commute
    # exactly; collapsing them avoids redundant pair checks.
    unique: dict[tuple, LocalProjection] = {}
    for p in d.projections:
        unique.setdefault((p.support, p.matrix.tobytes()), p)
    return max(
        (dev for _, _, dev in commutator_deviations(list(unique.values()), cap)),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# JSON serialization
#
# Schema: {"n_qubits": int,
#          "projections": [{"support": [int, ...],
#                           "matrix": [[[re, im], ...], ...]}, ...]}
# Matrix conventions match circuit JSON.  Assertion tuples reuse this
# schema with an unconstrained entry count.


def description_to_json(d: Description) -> dict:
    """Encode a description (or assertion tuple) as a JSON-compatible dict."""
    from .circuit import matrix_to_json

    return {
        "n_qubits": d.n_qubits,
        "projections": [
            {"support": list(p.support), "matrix": matrix_to_json(p.matrix)}
            for p in d.projections
        ],
    }


def projection_entries_from_json(obj) -> tuple[int, tuple[LocalProjection, ...]]:
    """Strictly decode the shared projection-tuple schema.

    Returns the declared qubit count and the entries, without
    constraining how many entries there are; assertion tuples share this
    schema with descriptions but may have any length.
    """
    if not isinstance(obj, dict):
        raise SchemaError("description: expected a JSON object at top level")
    unknown = set(obj) - {"n_qubits", "projections"}
    if unknown:
        raise SchemaError(f"description: unknown field(s) {sorted(unknown)}")
    for field in ("n_qubits", "projections"):
        if field not in obj:
            raise SchemaError(f"description: missing required field {field!r}")
    n_qubits = _require_int(obj["n_qubits"], "n_qubits")
    if n_qubits < 1:
        raise SchemaError(f"n_qubits: must be at least 1, got {n_qubits}")
    raw_entries = obj["projections"]
    if not isinstance(raw_entries, list):
        raise SchemaError("projections: expected a list")
    entries = []
    for i, node in enumerate(raw_entries):
        where = f"projections[{i}]"
        if not isinstance(node, dict):
            raise SchemaError(f"{where}: expected an object")
        unknown = set(node) - {"support", "matrix"}
        if unknown:
            raise SchemaError(f"{where}: unknown field(s) {sorted(unknown)}")
        for field in ("support", "matrix"):
            if field not in node:
                raise SchemaError(f"{where}: missing required field {field!r}")
        raw_support = node["support"]
        if not isinstance(raw_support, list) or not raw_support:
            raise SchemaError(f"{where}.support: expected a non-empty list")
        support = [
            _require_int(q, f"{where}.support[{j}]") for j, q in enumerate(raw_support)
        ]
        if support != sorted(set(support)):
            raise SchemaError(
                f"{where}.support: must be sorted and duplicate-free, "
                f"got {support}"
            )
        if support[-1] >= n_qubits or support[0] < 0:
            raise SchemaError(
                f"{where}.support: indices out of range for {n_qubits} qubit(s)"
            )
        matrix = matrix_from_json(node["matrix"], f"{where}.matrix")
        if matrix.shape[0] != 1 << len(support):
            raise SchemaError(
                f"{where}: matrix of dimension {matrix.shape[0]} does not "
                f"match {len(support)} qubit(s)"
            )
        entries.append(LocalProjection(tuple(support), matrix))
    return n_qubits, tuple(entries)


def description_from_json(obj) -> Description:
    """Decode a description, requiring exactly one entry per qubit."""
    n_qubits, entries = projection_entries_from_json(obj)
    if len(entries) != n_qubits:
        raise SchemaError(
            f"description: expected {n_qubits} projection(s), one per qubit, "
            f"got {len(entries)}"
        )
    return Description(n_qubits, entries)
