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
disjoint axes of a tensor, transposing it at most once before and once
after and taking one matrix product per operator, optionally for a
whole stack of tensors with one matrix per member; the cone-state
kernel calls it once per layer for a group of same-shape cones, and
the first two of these are one call to it:

* :func:`apply_local` applies an operator to some qubit axes of a
  state, or of the rows of a matrix;
* ``_conjugate``, unchecked, conjugates a matrix by a layer of disjoint
  operators, the kernel of the dense description engine;
* ``_conjugate_hermitian``, unchecked, the last step of each described entry,
  computes only the tiles on or above the diagonal of the grown matrix
  and mirrors them into an exactly Hermitian result.  When there is
  more than one tile, each comes straight from a strided view of the
  old matrix through each gate's superoperator, one small matrix
  product per gate, so neither the full embedded matrix nor a
  zero-filled tile is built.

They are algebraically identical to ``embed`` followed by a dense
product (and, for the last, ``(P + P†)/2``) and are cross-checked
against that path in the test suite.
Every public name here is used by another module of the package; the
dense helpers that only the tests use (the conjugate transpose, the
identity, the entrywise maximum) live with the tests, not here.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .config import STRUCTURAL_TOL
from .errors import DomainError

__all__ = [
    "ErrorTriple",
    "apply_layer",
    "apply_local",
    "embed",
    "is_projection",
    "membership_residual",
    "residual_norms",
    "zero_state",
]


#: Most amplitudes (1 MiB, width 8) in a tile of :func:`_conjugate_hermitian`
#: while it has idle axes left to split on.
_TILE = 1 << 16


def _integral(value, what: str) -> int:
    """``value`` as an ``int``; only ``int`` and numpy integers are accepted."""
    # Plain ints first: positions are checked on every kernel call, and
    # this case costs no more than ``int()``.
    if type(value) is int:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise DomainError(f"{what} must be an integer, got {value!r}")


def _seed(seed) -> int | np.random.Generator | None:
    """``seed`` checked for ``np.random.default_rng``: ``None``, a
    ``Generator``, or a non-negative integer other than a ``bool``,
    returned as an ``int``; anything else is a :class:`DomainError`."""
    if seed is None or isinstance(seed, np.random.Generator):
        return seed
    value = _integral(seed, "seed")
    if value < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return value


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
    if _integral(n_qubits, "the qubit count") < 0:
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
    m = len(tgt)
    out = np.zeros((1 << m, 1 << m), dtype=complex)
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
    view[full + bits + full + bits] = op.reshape((2,) * (2 * k))
    return out


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

    The tensor is transposed at most once so that the acted axes lead
    (behind the batch axis) in the order the ops use them, and back at
    most once; a layer on every axis in order, or on none, needs no
    transpose.  Each op is one matrix product, ``t.reshape(2**k, -1).T @
    u.T``, broadcast over the batch axis, which cycles its axes to the
    back, so no copy is made between ops.
    """
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


def _conjugate(
    mat: np.ndarray, ops: Sequence[tuple[np.ndarray, Sequence[int]]]
) -> np.ndarray:
    """``U mat U†`` for the product ``U`` of one layer's ops, in ``mat``'s shape.

    ``mat`` is an operator on ``w`` qubits, as a matrix or as a tensor
    with ``2·w`` axes, rows first.  ``ops`` holds ``(matrix, positions)``
    pairs on disjoint positions, listed as for :func:`apply_local`.  It
    is one :func:`apply_layer` call: each op acts on its row axes ``p``
    and its complex conjugate on the column axes ``w + p``, since ``mat
    @ u†`` is ``conj(u)`` applied to the columns.  It checks no
    arguments, so callers must.
    """
    w = (mat.size.bit_length() - 1) // 2
    columns = [(np.conj(u), [w + p for p in pos]) for u, pos in ops]
    return apply_layer(mat.reshape((2,) * (2 * w)), [*ops, *columns]).reshape(mat.shape)


def _superoperator(u: np.ndarray, old: Sequence[bool]) -> np.ndarray:
    """The map ``X ↦ u (X ⊗ I) u†`` of one op, as a matrix.

    ``old[i]`` tells whether the op's ``i``-th qubit is one of ``X``'s;
    the identity is on the op's other, new qubits.  Rows index ``(i,
    j)``, the row and column of the result over all the op's qubits, and
    columns ``(k, l)``, the row and column of ``X`` over its old ones,
    each in the op's own qubit order: ``S[(i, j), (k, l)] = Σ_x u[i, (k,
    x)] · conj(u[j, (l, x)])``.  A two-qubit gate with one new qubit
    gives a 16×4 matrix.
    """
    m = len(old)
    o = [i for i in range(m) if old[i]]
    inputs = o + [i for i in range(m) if not old[i]]
    v = u.reshape((2,) * (2 * m)).transpose(list(range(m)) + [m + i for i in inputs])
    v = v.reshape(1 << (m + len(o)), -1)
    s = (v @ v.conj().T).reshape(1 << m, 1 << len(o), 1 << m, 1 << len(o))
    return s.transpose(0, 2, 1, 3).reshape(1 << (2 * m), 1 << (2 * len(o)))


def _conjugate_hermitian(
    p: np.ndarray,
    support: Sequence[int],
    grown: Sequence[int],
    ops: Sequence[tuple[np.ndarray, Sequence[int]]],
    out: np.ndarray,
) -> np.ndarray:
    """``U (p ⊗ I) U†`` on ``grown``, exactly Hermitian, for one layer ``U``.

    ``p`` is a Hermitian matrix (up to rounding) on the sorted
    ``support``, a subset of the sorted ``grown``; ``ops`` holds
    ``(matrix, positions)`` pairs on disjoint positions of ``grown``,
    listed as for :func:`apply_local`, and must touch every qubit of
    ``grown`` not in ``support``.  ``p`` is not modified.  Like
    :func:`_conjugate`, it checks no arguments, so callers must.

    A result of at most ``_TILE`` amplitudes, or with no idle axis, is
    one tile: the :func:`_conjugate` of the embedded ``p``, made
    Hermitian as ``(P + P†)/2``.
    Otherwise the row and column indices are split on the first few
    axes no op acts on, as many as bring a tile down to ``_TILE``
    amplitudes, and only the tiles on or above the diagonal are
    computed, each from the matching tile of ``p``, a strided view.
    Each op acts through its :func:`_superoperator`, which maps the op's
    old (row, column) axis pair of the tile to its full one: ``u ⊗ ū``
    for an op inside ``support``, 16×4 for a two-qubit gate with one new
    qubit.  So no ``p ⊗ I`` is built and no product reads its zeros.  A
    tile takes one matrix product per op, on axes that cycle to the back
    as in :func:`apply_layer`, and one transpose into a contiguous
    (rows, columns) tile.

    A tile ``T`` above the diagonal is written with ``T†`` in the
    mirrored tile, and a diagonal tile as ``T/2 + (T/2)†``, which is
    ``(T + T†)/2`` since halving is exact, so the result is Hermitian
    bit for bit.  A diagonal tile is halved through its last
    superoperator, at no cost.  Besides ``p`` and the result, one tile
    and its conjugate are live at a time.  The result is written into
    ``out``, a C-contiguous complex matrix on ``grown``, and returned.
    """
    w = len(grown)
    acted = {a for _, pos in ops for a in pos}
    idle = [a for a in range(w) if a not in acted]
    split = idle[: max(0, w - (_TILE.bit_length() - 1) // 2)]
    s, k = len(split), w - len(split)
    swap = list(range(k, 2 * k)) + list(range(k))
    if not s:
        t = _conjugate(embed(p, support, grown), ops).reshape((2,) * (2 * w))
        d = out.reshape((2,) * (2 * w))
        np.conjugate(t.transpose(swap), out=d)
        d += t
        d *= 0.5
        return out

    def at(axes: list[int], width: int, r: int, c: int) -> tuple:
        """Index of the view of tile ``(r, c)`` in a tensor split on ``axes``."""
        # The trailing ``...`` keeps a tile of no axes a 0-d view.
        index: list = [slice(None)] * (2 * width) + [...]
        for j, a in enumerate(axes):
            index[a] = (r >> (s - 1 - j)) & 1
            index[width + a] = (c >> (s - 1 - j)) & 1
        return tuple(index)

    source = p.reshape((2,) * (2 * len(support)))
    fixed = [grown[a] for a in split]
    in_p = [support.index(q) for q in fixed]
    # A tile of ``p`` has a row and a column axis per kept qubit;
    # ``label`` is the axis of the result's tile each one becomes.
    rest = [q for q in grown if q not in fixed]
    kept = [q for q in support if q not in fixed]
    axis = {q: a for a, q in enumerate(rest)}
    label = [axis[q] for q in kept] + [k + axis[q] for q in kept]
    plan, outs = [], []
    for u, pos in ops:
        pos = [a - sum(x < a for x in split) for a in pos]
        old = [kept.index(rest[a]) for a in pos if rest[a] in kept]
        sup = _superoperator(u, [rest[a] in kept for a in pos])
        plan.append((sup.T, old + [len(kept) + i for i in old]))
        outs += pos + [k + a for a in pos]
    halved = plan[:-1] + [(m * 0.5, axes) for m, axes in plan[-1:]]
    consumed = [i for _, axes in plan for i in axes]
    passed = [i for i in range(2 * len(kept)) if i not in consumed]
    back = np.argsort([label[i] for i in passed] + outs).tolist()
    full = out.reshape((2,) * (2 * w))
    for r in range(1 << s):
        for c in range(r, 1 << s):
            # Each product takes the op's old axes from the front and
            # puts its full ones at the back, as in ``apply_layer``.
            t = source[at(in_p, len(support), r, c)].transpose(consumed + passed)
            for m, axes in halved if r == c else plan:
                t = t.reshape(1 << len(axes), -1).T @ m
            # ``copy``, unlike ``ascontiguousarray``, keeps a tile of no
            # axes 0-d.
            t = t.reshape((2,) * (2 * k)).transpose(back).copy()
            if r == c:
                if not plan:
                    t *= 0.5
                d = full[at(split, w, r, r)]
                np.conjugate(t.transpose(swap), out=d)
                d += t
            else:
                full[at(split, w, r, c)] = t
                np.conjugate(t.transpose(swap), out=full[at(split, w, c, r)])
    return out
