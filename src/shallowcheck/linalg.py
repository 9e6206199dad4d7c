"""Dense complex linear algebra for qubit-indexed operators.

Every operator in this package is a dense numpy array of dtype
``complex128``.  A ``k``-qubit operator has shape ``(2**k, 2**k)`` and a
``k``-qubit state vector has length ``2**k``.

Bit ordering is fixed globally: within a sorted support, the qubit with
the smallest index is the most significant bit of the row and column
index.  Every embedding sorts supports ascending first, so the
convention holds package-wide and no per-call permutation flags exist.

Besides the core operations (:func:`embed`, :func:`is_projection`,
:func:`membership_residual`, :func:`zero_state`), this module provides
locality-aware primitives that act on a few tensor axes of a larger
operator or state without materializing the embedded matrix.
One kernel, :func:`apply_layer`, applies a layer of operators on
disjoint axes of a tensor, one matrix product per operator, optionally
for a whole stack of tensors with one matrix per member; the cone-state
kernel calls it once per layer for a group of same-shape cones, and
the first two of these are one call to it:

* :func:`apply_local` applies an operator to some qubit axes of a
  state, or of the rows of a matrix;
* :func:`conjugate_layer` conjugates a matrix by a layer of disjoint
  operators, the kernel of the dense description engine;
* ``_conjugate_hermitian``, the last step of each described entry,
  embeds and conjugates only the tiles on or above the diagonal of the
  grown matrix, one call per tile, and mirrors them into an exactly
  Hermitian result, never building the full embedded matrix.

They are algebraically identical to ``embed`` followed by a dense
product (and, for the last, ``(P + P†)/2``) and are cross-checked
against that path in the test suite.
Every public name here is used by another module of the package; the
dense helpers that only the tests use (the conjugate transpose, the
identity, the entrywise maximum) live with the tests, not here.

A layer of plain matrices on contiguous, ascending axes of a
C-contiguous tensor, at its leading or trailing edge or in the middle
with at least 64 entries behind, runs as one matrix product per
operator on a reshaped view, with no transpose: the straddling gates of
the description engine, at the edges of its widest matrices.  Every
other layer, batched stacks and middle operators with fewer entries
behind them included, is transposed at most once before and once after,
since there a narrow middle product costs more than the transpose.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .config import STRUCTURAL_TOL
from .errors import DomainError

__all__ = [
    "ErrorTriple",
    "apply_layer",
    "apply_local",
    "conjugate_layer",
    "embed",
    "is_projection",
    "membership_residual",
    "residual_norms",
    "zero_state",
]


#: Most amplitudes (1 MiB, width 8) in a tile of :func:`_conjugate_hermitian`
#: while it has idle axes left to split on.
_TILE = 1 << 16

#: Smallest trailing block ``B`` of a middle op in the transpose-free
#: form of :func:`apply_layer`.
_MIN_TRAILING = 64


def _integral(value, what: str) -> int:
    """``value`` as an ``int``; only ``int`` and numpy integers are accepted."""
    # Plain ints first: positions are checked on every kernel call, and
    # this case costs no more than ``int()``.
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise DomainError(f"{what} must be an integer, got {value!r}")


def _as_operator(a: np.ndarray | Sequence, what: str = "matrix") -> np.ndarray:
    """Coerce to a square complex matrix, raising DomainError otherwise."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"{what} must be square, got shape {m.shape}")
    return m


def _as_frozen(a: np.ndarray | Sequence) -> np.ndarray:
    """``a`` as a read-only complex array no writable array shares memory with.

    ``a`` itself when it is a complex array that is read-only along
    with every array whose memory it views, a read-only complex copy
    otherwise, so a caller's writable array is never aliased.
    """
    if isinstance(a, np.ndarray) and a.dtype == complex:
        base = a
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return a
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def _qubit_count(dim: int, what: str = "matrix") -> int:
    """Number of qubits for a dimension that must be a power of two."""
    if dim < 1 or dim & (dim - 1):
        raise DomainError(f"{what} dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def _max_abs(a: np.ndarray) -> float:
    """Largest absolute value of any entry (0.0 for an empty array)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def zero_state(n_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state on ``n_qubits`` qubits."""
    if n_qubits < 0:
        raise DomainError(f"qubit count must be non-negative, got {n_qubits}")
    v = np.zeros(1 << n_qubits, dtype=complex)
    v[0] = 1.0
    return v


def embed(
    op: np.ndarray,
    op_support: Sequence[int],
    target_support: Sequence[int],
) -> np.ndarray:
    """Embed ``op`` into a larger support, acting as identity elsewhere.

    Both supports must be sorted ascending and duplicate-free, with
    ``op_support`` a subset of ``target_support``, whose size callers
    bound.  Tensor factors of the result are ordered by ascending qubit
    index.  ``op`` is assigned to all of its identity blocks at once
    through a transposed view of the zeroed result, so the only
    allocation is the result itself and its entries are copied.

    Parameters
    ----------
    op
        Operator of dimension ``2**len(op_support)``.
    op_support
        Sorted qubit indices ``op`` acts on.
    target_support
        Sorted superset of ``op_support``.

    Returns
    -------
    numpy.ndarray
        Operator of dimension ``2**len(target_support)``.
    """
    op = _as_operator(op, "op")
    ops = [_integral(q, "a qubit of op_support") for q in op_support]
    tgt = [_integral(q, "a qubit of target_support") for q in target_support]
    if ops != sorted(set(ops)):
        raise DomainError(f"op_support must be sorted and duplicate-free, got {ops}")
    if tgt != sorted(set(tgt)):
        raise DomainError(
            f"target_support must be sorted and duplicate-free, got {tgt}"
        )
    if not set(ops) <= set(tgt):
        raise DomainError(f"op_support {ops} is not a subset of target {tgt}")
    k = len(ops)
    if op.shape[0] != 1 << k:
        raise DomainError(
            f"op of dimension {op.shape[0]} does not match a support of "
            f"{k} qubit(s)"
        )
    if ops == tgt:
        return op.copy()
    out = np.zeros((1 << len(tgt), 1 << len(tgt)), dtype=complex)
    _place(out, op.reshape((2,) * (2 * k)), ops, tgt)
    return out


def _place(out: np.ndarray, op: np.ndarray, ops: list[int], tgt: list[int]) -> None:
    """Write the tensor ``op`` on ``ops`` into every identity block of ``out``.

    ``out`` is a zeroed operator on ``tgt`` and ``op`` a tensor with
    two axes per qubit of ``ops``, rows first, which may be a strided
    view: it is read in the one assignment that fills the blocks.
    """
    m, k = len(tgt), len(ops)
    rest = [q for q in tgt if q not in set(ops)]
    # A view of ``out`` whose axes are op's qubits, then the rest, for
    # the rows and then the columns.
    axis = {q: i for i, q in enumerate(tgt)}
    order = [axis[q] for q in ops + rest]
    view = out.reshape((2,) * (2 * m)).transpose(order + [m + a for a in order])
    # Bits of every index of the rest, one array per rest qubit: ``op``
    # goes on the blocks where the rest's row and column indices agree.
    blocks = np.arange(1 << (m - k))
    bits = tuple((blocks >> (m - k - 1 - j)) & 1 for j in range(m - k))
    full = (slice(None),) * k
    view[full + bits + full + bits] = op


def is_projection(p: np.ndarray, tol: float = STRUCTURAL_TOL) -> bool:
    """True iff ``p`` is idempotent and Hermitian within ``tol``.

    Both deviations are measured entrywise in absolute value.
    """
    p = _as_operator(p, "p")
    return bool(
        _max_abs(p @ p - p) <= tol and _max_abs(p - p.conj().T) <= tol
    )


class ErrorTriple(NamedTuple):
    """Three norms of a residual vector ``E``.

    ``l1`` and ``l2`` are averaged over the dimension ``N``
    (``l1 = sum(|E_j|) / N`` and ``l2 = sqrt(sum(|E_j|**2) / N)``),
    while ``linf`` is the plain maximum ``max(|E_j|)``.
    """

    l1: float
    l2: float
    linf: float


def residual_norms(e: np.ndarray) -> list[ErrorTriple]:
    """The :class:`ErrorTriple` of each row of a 2-D array ``e`` of residuals.

    All rows are reduced at once, and each row's norms equal those of
    the row reduced on its own, bit for bit.
    """
    n = e.shape[-1]
    abs_e = np.abs(e)
    l1 = np.sum(abs_e, axis=-1) / n
    l2 = np.sqrt(np.sum(abs_e**2, axis=-1) / n)
    linf = np.max(abs_e, axis=-1) if n else np.zeros(len(e))
    return [ErrorTriple(*t) for t in zip(l1.tolist(), l2.tolist(), linf.tolist())]


def membership_residual(p: np.ndarray, v: np.ndarray) -> ErrorTriple:
    """Norms of ``E = p @ v - v``, the defect of ``v`` from ``range(p)``.

    A zero triple means ``v`` is fixed by ``p``, i.e. lies in its range
    when ``p`` is a projection.

    Parameters
    ----------
    p
        Square operator.
    v
        Vector of matching dimension.
    """
    p = _as_operator(p, "p")
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.size != p.shape[0]:
        raise DomainError(
            f"dimension mismatch: p is {p.shape[0]}-dimensional, "
            f"v has {v.size} entries"
        )
    return residual_norms((p @ v - v)[None])[0]


def _check_local_args(
    op: np.ndarray, positions: Sequence[int], n_qubits: int
) -> tuple[np.ndarray, list[int]]:
    op = _as_operator(op, "op")
    pos = [_integral(p, "a position") for p in positions]
    k = _qubit_count(op.shape[0], "op")
    if k != len(pos):
        raise DomainError(
            f"op acts on {k} qubit(s) but {len(pos)} position(s) were given"
        )
    if len(set(pos)) != len(pos):
        raise DomainError(f"positions must be distinct, got {pos}")
    if pos and (min(pos) < 0 or max(pos) >= n_qubits):
        raise DomainError(
            f"positions {pos} out of range for {n_qubits} qubit(s)"
        )
    return op, pos


def _edge_blocks(
    tensor: np.ndarray, ops: Sequence[tuple[np.ndarray, Sequence[int]]]
) -> list[tuple[int, int, int]] | None:
    """``(A, 2**k, B)`` for each op if :func:`apply_layer` takes its
    transpose-free form, ``None`` if it transposes.

    ``A`` and ``B`` are the sizes of the axes before and after the op's.
    """
    if not tensor.flags.c_contiguous:
        return None
    blocks = []
    for u, axes in ops:
        first, k = min(axes, default=0), len(axes)
        if u.ndim != 2 or list(axes) != list(range(first, first + k)):
            return None
        before = math.prod(tensor.shape[:first])
        after = math.prod(tensor.shape[first + k:])
        if before > 1 and 1 < after < _MIN_TRAILING:
            return None
        blocks.append((before, 1 << k, after))
    order = [a for _, axes in ops for a in axes]
    return None if order in ([], list(range(tensor.ndim))) else blocks


def _apply_edges(
    tensor: np.ndarray,
    ops: Sequence[tuple[np.ndarray, Sequence[int]]],
    blocks: list[tuple[int, int, int]],
) -> np.ndarray:
    """The transpose-free form of :func:`apply_layer` on the blocks of
    :func:`_edge_blocks`.  Every product is C-contiguous in the tensor's
    own axis order, so no axis moves and nothing is copied between ops.
    """
    t = tensor
    for (u, _), (before, dim, after) in zip(ops, blocks):
        if before == 1:
            t = u @ t.reshape(dim, -1)
        elif after == 1:
            t = t.reshape(-1, dim) @ u.T
        else:
            t = u @ t.reshape(before, dim, after)
    return t.reshape(tensor.shape)


def apply_layer(
    tensor: np.ndarray, ops: Sequence[tuple[np.ndarray, Sequence[int]]]
) -> np.ndarray:
    """Apply a layer of operators on disjoint axes of ``tensor``.

    ``ops`` holds ``(matrix, axes)`` pairs, ``axes[i]`` carrying the
    ``i``-th (most significant first) qubit of the ``2**k``-dimensional
    matrix.  Acted axes have size 2; other axes ride along, whatever
    their size.  A matrix may also be a stack of shape ``(B, 2**k,
    2**k)``: the tensor's axis 0 is then a batch axis of size ``B``,
    which no op acts on, and member ``b`` of the stack acts on member
    ``b`` of the tensor, while a plain matrix acts on every member.
    It checks no arguments, so callers must.

    A layer runs in one of two forms, with the same result up to
    rounding.  The transpose-free form applies each op as one matrix
    product on a reshaped view of the tensor: ``u @ t.reshape(2**k,
    -1)`` when no axis comes before the op's, ``t.reshape(-1, 2**k) @
    u.T`` when none comes after them, and ``u @ t.reshape(A, 2**k, B)``
    otherwise, ``A`` and ``B`` being the sizes of the axes before and
    after.  It runs when the tensor is C-contiguous and every op is a
    plain matrix on contiguous, ascending axes, with ``B`` at least
    ``_MIN_TRAILING`` (64) if the op has axes on both sides: on a
    smaller trailing block the ``A`` narrow products cost more than the
    transpose they save.  The gates at the two ends of a grown support
    in the dense description engine, the widest matrices it conjugates,
    are this case.

    Every other layer takes the transpose form, batched stacks among
    them, as do layers on every axis in order or on none, which need no
    transpose there either.  It transposes the tensor at most once so
    that the acted axes lead (behind the batch axis) in the order the
    ops use them, and back at most once.  Each op is one matrix product,
    ``t.reshape(2**k, -1).T @ u.T``, broadcast over the batch axis,
    which cycles its axes to the back, so no copy is made between ops.
    """
    blocks = _edge_blocks(tensor, ops)
    if blocks is not None:
        return _apply_edges(tensor, ops, blocks)
    lead = [0] if any(u.ndim == 3 for u, _ in ops) else []
    every = list(range(tensor.ndim))
    order = [a for _, axes in ops for a in axes]
    idle = [a for a in every[len(lead):] if a not in order]
    t = tensor if lead + order + idle == every else tensor.transpose(lead + order + idle)
    shape = t.shape
    batch = shape[:len(lead)]
    for u, axes in ops:
        t = t.reshape(batch + (1 << len(axes), -1)).mT @ u.mT
    # The acted axes have cycled to the back, behind the idle ones.
    end = len(lead) + len(order)
    t = t.reshape(batch + shape[end:] + shape[len(lead):end])
    back = lead + idle + order
    return t if back == every else t.transpose(np.argsort(back))


def apply_local(
    op: np.ndarray,
    vec: np.ndarray,
    positions: Sequence[int],
    n_qubits: int,
) -> np.ndarray:
    """Apply ``op`` to the given qubit axes of an ``n_qubits`` state.

    Equivalent to ``embed(op, sorted_positions, full) @ vec`` but works
    by one :func:`apply_layer` call.  ``vec`` is a state of shape
    ``(2**n,)`` or a matrix of shape ``(2**n, m)`` whose rows are acted
    on.  ``positions[i]`` is the axis acted on by the ``i``-th (most
    significant first) qubit of ``op``, so an unsorted positions list
    expresses a gate whose listed qubit order differs from ascending
    order.
    """
    op, pos = _check_local_args(op, positions, n_qubits)
    vec = np.asarray(vec, dtype=complex)
    dim = 1 << n_qubits
    if vec.ndim not in (1, 2) or vec.shape[0] != dim:
        raise DomainError(
            f"state has shape {vec.shape}, expected ({dim},) or ({dim}, m)"
        )
    t = vec.reshape((2,) * n_qubits + vec.shape[1:])
    return apply_layer(t, [(op, pos)]).reshape(vec.shape)


def conjugate_layer(
    mat: np.ndarray,
    ops: Sequence[tuple[np.ndarray, Sequence[int]]],
    n_qubits: int,
) -> np.ndarray:
    """Return ``U @ mat @ U†`` for the product ``U`` of one layer's ops.

    ``ops`` holds ``(matrix, positions)`` pairs on disjoint positions,
    listed as for :func:`apply_local`.  ``mat`` is viewed as a tensor
    with ``2·n_qubits`` axes, rows first, and conjugated by one
    :func:`apply_layer` call: each op acts on its row axes ``p`` and its
    complex conjugate on the column axes ``n_qubits + p``, since
    ``mat @ u†`` is ``conj(u)`` applied to the columns.
    """
    mat = _as_operator(mat, "mat")
    dim = 1 << n_qubits
    if mat.shape[0] != dim:
        raise DomainError(f"mat is {mat.shape[0]}-dimensional, expected {dim}")
    checked = [_check_local_args(u, pos, n_qubits) for u, pos in ops]
    order = [p for _, pos in checked for p in pos]
    if len(set(order)) != len(order):
        raise DomainError(f"ops must act on disjoint positions, got {order}")
    columns = [(np.conj(u), [n_qubits + p for p in pos]) for u, pos in checked]
    t = apply_layer(mat.reshape((2,) * (2 * n_qubits)), checked + columns)
    return t.reshape(dim, dim)


def _conjugate_hermitian(
    p: np.ndarray,
    support: Sequence[int],
    grown: Sequence[int],
    ops: Sequence[tuple[np.ndarray, Sequence[int]]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``U (p ⊗ I) U†`` on ``grown``, exactly Hermitian, for one layer ``U``.

    ``p`` is a Hermitian matrix (up to rounding) on the sorted
    ``support``, a subset of the sorted ``grown``; ``ops`` holds
    ``(matrix, positions)`` pairs on disjoint positions of ``grown``,
    listed as for :func:`conjugate_layer`, and must touch every qubit of
    ``grown`` not in ``support``.  ``p`` is not modified.

    The row and column indices are split on the first few axes no op
    acts on, as many as bring a tile down to ``_TILE`` amplitudes when
    there are so many, and each tile of the result is the conjugate of
    the matching tile of ``p ⊗ I`` by the ops on the other axes.  Only
    the tiles on or above the diagonal are computed, each embedded from
    a strided view of ``p`` and conjugated by one :func:`apply_layer`
    call, so the full embedded matrix is never built.  A tile ``T``
    above the diagonal is written with ``T†`` in the mirrored tile, and
    a diagonal tile as ``(T + T†)/2``, so the result is Hermitian bit
    for bit.  A result of at most ``_TILE`` amplitudes, or with no idle
    axis, is one diagonal tile: the conjugate of the embedded ``p``,
    made Hermitian as ``(P + P†)/2``.  Besides ``p`` and the result,
    one tile and its conjugate are live at a time.  The result is
    written into ``out``, a C-contiguous complex matrix on ``grown``,
    when one is given, and otherwise allocated once the first tile's
    input has been freed.
    """
    support, grown = [int(q) for q in support], [int(q) for q in grown]
    w = len(grown)
    checked = [_check_local_args(u, pos, w) for u, pos in ops]
    acted = {a for _, pos in checked for a in pos}
    idle = [a for a in range(w) if a not in acted]
    split = idle[: max(0, w - (_TILE.bit_length() - 1) // 2)]
    s, k = len(split), w - len(split)
    layer = [(u, [a - sum(x < a for x in split) for a in pos]) for u, pos in checked]
    layer += [(np.conj(u), [k + a for a in pos]) for u, pos in layer]
    fixed = [grown[a] for a in split]
    kept = [q for q in support if q not in fixed]
    rest = [q for q in grown if q not in fixed]
    source = p.reshape((2,) * (2 * len(support)))
    in_p = [support.index(q) for q in fixed]

    def at(axes: list[int], width: int, r: int, c: int) -> tuple:
        """Index of the view of tile ``(r, c)`` in a tensor split on ``axes``."""
        index: list = [slice(None)] * (2 * width) + [...]
        for j, a in enumerate(axes):
            index[a] = (r >> (s - 1 - j)) & 1
            index[width + a] = (c >> (s - 1 - j)) & 1
        return tuple(index)

    def tile(r: int, c: int) -> np.ndarray:
        """Tile ``(r, c)`` of ``p ⊗ I``, as a tensor."""
        view = source[at(in_p, len(support), r, c)]
        if kept == rest:
            return view
        x = np.zeros((1 << k, 1 << k), dtype=complex)
        _place(x, view, kept, rest)
        return x.reshape((2,) * (2 * k))

    swap = list(range(k, 2 * k)) + list(range(k))
    for r in range(1 << s):
        for c in range(r, 1 << s):
            t = apply_layer(tile(r, c), layer)
            if out is None:
                out = np.empty((1 << w, 1 << w), dtype=complex)
            full = out.reshape((2,) * (2 * w))
            if r == c:
                d = full[at(split, w, r, r)]
                np.conjugate(t.transpose(swap), out=d)
                d += t
                d *= 0.5
            else:
                full[at(split, w, r, c)] = t
                np.conjugate(t.transpose(swap), out=full[at(split, w, c, r)])
    return out
