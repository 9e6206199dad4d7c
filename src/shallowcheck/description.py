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

import functools
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .circuit import (
    Circuit,
    Gate,
    _check_fields,
    _require_int,
    _tabled,
    matrix_from_json,
)
from .cone import ZERO_PROJECTOR, walk_light_cones
from .config import _check_per_qubit, support_cap
from .errors import CapacityError, DomainError, SchemaError, ValidationError
from .linalg import (
    ErrorTriple,
    _TILE,
    _as_frozen,
    _conjugate,
    _conjugate_hermitian,
    _integral,
    apply_layer,
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
    entries may coincide.  :func:`compute_description` and
    :func:`description_from_json` give exactly ``n_qubits`` entries, but
    the constructor accepts any count.  Deduplication would not change
    what the tuple describes and is intentionally not performed.  Every
    entry must be a :class:`LocalProjection`; anything else is a
    ``DomainError``.
    """

    n_qubits: int
    projections: tuple[LocalProjection, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", _integral(self.n_qubits, "n_qubits"))
        object.__setattr__(self, "projections", tuple(self.projections))
        for i, p in enumerate(self.projections):
            if not isinstance(p, LocalProjection):
                raise DomainError(
                    f"projection {i} must be a LocalProjection, got {type(p).__name__}"
                )

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
        Also if the qubit count is more than the host can hold one entry
        per qubit for, before any per-qubit list is built.

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
    layer's gates.  Each half is one call of the private, unchecked
    ``linalg._conjugate``, itself one
    :func:`~shallowcheck.linalg.apply_layer` call: one matrix product per
    gate on the row axes and one on the column axes, with the tensor
    permuted at most once before and once after.  The last step, which
    reaches the final support, computes only the tiles on or above the
    diagonal, split on idle qubits of that layer, and mirrors them, so
    each entry is exactly Hermitian; diagonal tiles are re-symmetrized
    as ``(T + T†)/2``.  Each tile is read from a strided view of the
    previous matrix and taken through each gate's superoperator, the map
    ``X ↦ G (X ⊗ I) G†`` as one small matrix: 16×4 for a two-qubit gate
    with one new qubit, ``G ⊗ Ḡ`` for one inside the old support, where a
    last step that does not grow takes its layer's inside gates.  So
    neither the full embedded matrix nor a zero-filled tile is built.
    An entry of at most ``2^16`` amplitudes (width 8) is one
    tile, embedded, conjugated whole and re-symmetrized as
    ``(P + P†)/2``.
    Within a call, gates are applied in order of smallest qubit index;
    this and the tiling pin the output bits exactly for a given input.
    This is the dense ``16·4^w``-byte path; the checks use the
    cone-state kernel instead and this function is their reference.

    Validation and the light-cone walk run on the calling thread, so a
    capacity error comes before any entry is built.  When some entry's
    final matrix holds at least ``2^16`` amplitudes (one tile) and the
    process may run on more than one CPU (``os.sched_getaffinity``, else
    ``os.cpu_count()``), one pool thread per CPU builds the entries,
    widest first, while the caller waits; their matrix products release
    the interpreter lock and overlap.  Meanwhile numpy's bundled OpenBLAS
    runs each call on one thread, a count set for the whole process and
    restored when the call returns or raises; concurrent calls pool one
    at a time.  Another BLAS, whose count cannot be set, builds serially,
    as do one-CPU hosts and narrower descriptions, whose entries spend
    their time in Python under the interpreter lock.  Each final matrix
    is allocated untouched on the calling thread first, whichever way
    the entries are built, so pool threads allocate only temporaries and
    glibc's per-thread arenas keep no freed output resident.  The output
    is bit-identical whichever thread builds an entry.
    """
    layers, violations = _tabled(c)
    if violations:
        raise ValidationError(violations)
    if cap is None:
        cap = support_cap()
    n = c.n_qubits
    _check_per_qubit(n)
    # Each chain's gate indices resolved to ``c``'s own gates, once, and
    # handed to its members.
    cones: list = [None] * n
    starts = [(t,) for t in range(n)]
    for steps, members in walk_light_cones(layers, starts, "support of qubit {}", cap):
        resolved = [([c.layers[l].gates[j] for j in gates], grown) for l, gates, grown in steps]
        for t in members:
            cones[t] = resolved
    # Each entry's final matrix, allocated untouched, and its amplitudes;
    # an entry no gate touches has neither.
    outs = [np.empty((1 << len(s[-1][1]),) * 2, dtype=complex) if s else None for s in cones]
    sizes = [0 if out is None else out.size for out in outs]
    workers = _pool_threads() if max(sizes, default=0) >= _TILE else 1
    blas = _openblas() if workers > 1 else None
    if blas is None:
        return Description(n, tuple(map(_entry, range(n), cones, outs)))
    return Description(n, _pooled(cones, outs, sizes, workers, blas))


def _pool_threads() -> int:
    """Pool threads for a wide description: one per CPU this process may run on."""
    # ``sched_getaffinity`` is missing on macOS and Windows.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas() -> tuple[Callable, Callable] | None:
    """The functions that get and set the thread count of numpy's bundled
    OpenBLAS, or ``None`` when numpy runs on another BLAS.

    Looked up on the first wide description, so importing the package
    loads no ``ctypes``.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return None


#: Held while a pool runs: the BLAS's thread count is one per process,
#: so pools that overlapped would read each other's count and restore it.
_PINNED = threading.Lock()


#: One step of an entry's light cone: the gates it meets, sorted by
#: smallest qubit, and the grown support.
_Step = tuple[list[Gate], tuple[int, ...]]


def _pooled(
    cones: Sequence[Sequence[_Step]],
    outs: Sequence[np.ndarray | None],
    sizes: Sequence[int],
    workers: int,
    blas: tuple,
) -> tuple[LocalProjection, ...]:
    """The entries of :func:`compute_description`, built widest first on
    ``workers`` pool threads while each BLAS call runs on one thread,
    each entry's last step writing into its ``outs``.

    On the first exception, here or in an entry, the entries not yet
    started are cancelled, and once the running ones end the first
    failure in build order is raised.  The BLAS's thread count is
    restored whatever happens; pools in other threads wait for it.
    """
    # Imported here: a process that never builds a wide description
    # does not load the executor and the logging module it imports.
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    get_threads, set_threads = blas
    with _PINNED:
        threads = get_threads()
        set_threads(1)
        pool = ThreadPoolExecutor(workers)
        try:
            futures = {
                t: pool.submit(_entry, t, cones[t], outs[t])
                for t in sorted(range(len(cones)), key=lambda t: -sizes[t])
            }
            wait(futures.values(), return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
            set_threads(threads)
    # ``result`` raises the first failure in build order.
    built = {t: f.result() for t, f in futures.items() if not f.cancelled()}
    return tuple(built[t] for t in range(len(cones)))


def _entry(
    t: int, steps: Sequence[_Step], out: np.ndarray | None
) -> LocalProjection:
    """Entry ``t`` from its light-cone ``steps``, the last step writing
    into ``out``; ``out`` is ``None`` only for an entry with no step."""
    support: tuple[int, ...] = (t,)
    p = ZERO_PROJECTOR
    for k, (touched, grown) in enumerate(steps, 1):
        old = set(support)
        inside = [g for g in touched if old.issuperset(g.qubits)]
        straddling = [g for g in touched if not old.issuperset(g.qubits)]
        # A last step that does not grow hands its inside gates to the
        # final conjugation instead.
        if inside and (straddling or k < len(steps)):
            p = _conjugate(p, _layer(inside, support))
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
            p = _conjugate(p, _layer(straddling, grown))
        support = grown
    return LocalProjection(support, p)


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
    return max((dev for _, _, dev in commutator_deviations(d.projections, cap)), default=0.0)


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
    _check_fields(obj, "description", ("n_qubits", "projections"))
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
        _check_fields(node, where, ("support", "matrix"))
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
