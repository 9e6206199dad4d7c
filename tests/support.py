"""Cross-check helpers and named fixtures that only the test suite uses.

The package ships the decision procedures; this module holds what the
tests check them against:

* dense references over all ``2**n`` amplitudes (:func:`full_unitary`,
  :func:`equal_up_to_phase`, :func:`partial_trace`,
  :func:`subspace_dim`, :func:`intersection_rank_small`), capped like
  the package's brute-force simulator;
* :func:`order_independence_check`, the property the commutation guard
  of ``runtime_assert`` protects;
* :func:`micro_fixtures`, named circuit pairs with known verdicts;
* small operator helpers (:func:`dagger`, :func:`max_abs`,
  :func:`gate_in_sorted_order`).

Test modules import it by name (``from support import ...``): this
directory has no ``__init__.py``, so pytest's default import mode puts
it on ``sys.path``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from shallowcheck import (
    NAMED_GATES,
    Circuit,
    Description,
    DomainError,
    Gate,
    Layer,
    ValidationError,
    embed,
    haar_unitary,
    validate,
)
from shallowcheck.assertion import _check_commuting, _check_entry_shapes, _entries
from shallowcheck.config import DEFAULT_ORACLE_CAP
from shallowcheck.linalg import _integral, apply_local
from shallowcheck.oracle import _check_cap


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a, dtype=complex)).T


def max_abs(a: np.ndarray) -> float:
    """Largest absolute value of any entry (0.0 for an empty array)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def gate_in_sorted_order(g: Gate) -> Gate:
    """Equivalent gate with its qubit list sorted ascending.

    Permutes the matrix's tensor axes to match, so the returned gate
    implements the same operator.  Needed by consumers that require
    sorted supports, such as ``embed``.
    """
    if list(g.qubits) == sorted(g.qubits):
        return g
    order = sorted(range(g.arity), key=lambda i: g.qubits[i])
    k = g.arity
    perm = order + [k + i for i in order]
    matrix = (
        g.matrix.reshape((2,) * (2 * k)).transpose(perm).reshape(g.matrix.shape)
    )
    return Gate(tuple(sorted(g.qubits)), matrix)


# ---------------------------------------------------------------------------
# Dense references over the full space


def full_unitary(c: Circuit, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Dense ``2**n`` unitary of the whole circuit.

    Built as an explicit product of per-layer embedded gate matrices, a
    deliberately different evaluation path from ``simulate``'s
    contraction, which makes the two useful as independent witnesses of
    each other.
    """
    n = c.n_qubits
    _check_cap(n, cap, "matrix build")
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    total = np.eye(1 << n, dtype=complex)
    full = list(range(n))
    for layer in c.layers:
        layer_matrix = np.eye(1 << n, dtype=complex)
        for g in layer.gates:
            sg = gate_in_sorted_order(g)
            layer_matrix = embed(sg.matrix, list(sg.qubits), full) @ layer_matrix
        total = layer_matrix @ total
    return total


def equal_up_to_phase(
    u: np.ndarray,
    v: np.ndarray,
    tol: float = 1e-7,
) -> bool:
    """True iff two normalized states agree up to a global phase.

    Decided by ``|<u|v>| >= 1 - tol``; for unit vectors the overlap
    magnitude is 1 exactly when they differ only by a phase factor.
    """
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != v.size:
        raise DomainError(
            f"states of dimension {u.size} and {v.size} cannot be compared"
        )
    for name, s in (("u", u), ("v", v)):
        norm = float(np.linalg.norm(s))
        if abs(norm - 1.0) > 1e-6:
            raise DomainError(f"state {name} is not normalized (norm {norm!r})")
    return bool(abs(np.vdot(u, v)) >= 1.0 - tol)


def partial_trace(
    rho: np.ndarray,
    keep: Sequence[int],
    total: int,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Reduced density matrix on the ``keep`` qubits.

    The result's basis is ordered by ascending qubit index regardless of
    the order of ``keep``.
    """
    _check_cap(total, cap, "partial trace")
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << total
    if rho.shape != (dim, dim):
        raise DomainError(
            f"density matrix shape {rho.shape} does not match {total} qubit(s)"
        )
    keep_list = [_integral(q, "a kept qubit") for q in keep]
    kept = sorted(set(keep_list))
    if len(kept) != len(keep_list):
        raise DomainError(f"keep indices must be distinct, got {keep_list}")
    if kept and (kept[0] < 0 or kept[-1] >= total):
        raise DomainError(f"keep indices {kept} out of range for {total} qubit(s)")
    traced = [q for q in range(total) if q not in set(kept)]
    k = len(kept)
    t = rho.reshape((2,) * (2 * total))
    perm = kept + traced + [total + q for q in kept] + [total + q for q in traced]
    t = t.transpose(perm)
    keep_dim = 1 << k
    rest_dim = 1 << (total - k)
    t = t.reshape(keep_dim, rest_dim, keep_dim, rest_dim)
    return np.einsum("icjc->ij", t)


def subspace_dim(
    projections: Sequence[np.ndarray],
    tol: float = 1e-8,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Dimension of the intersection of commuting projections' ranges.

    For pairwise-commuting projections the product of the list is
    itself the projection onto the intersection of the ranges, so its
    trace counts the dimension.  Raises :class:`DomainError` if the
    list is empty, dimensions differ, a pair fails to commute within
    ``tol`` (the message names the pair), or the product trace is not
    near an integer.
    """
    mats = [np.asarray(p, dtype=complex) for p in projections]
    if not mats:
        raise DomainError("subspace_dim needs at least one projection")
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.ndim != 2 or m.shape != (dim, dim):
            raise DomainError(
                f"projection {i} has shape {m.shape}, expected ({dim}, {dim})"
            )
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise DomainError(f"dimension {dim} is not a power of two")
    _check_cap(n, cap, "subspace dimension")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            dev = max_abs(mats[i] @ mats[j] - mats[j] @ mats[i])
            if dev > tol:
                raise DomainError(
                    f"projections {i} and {j} do not commute "
                    f"(max deviation {dev:.3e}); the product shortcut does "
                    f"not apply"
                )
    product = mats[0].copy()
    for m in mats[1:]:
        product = product @ m
    trace = float(np.trace(product).real)
    rounded = round(trace)
    if abs(trace - rounded) > 1e-6:
        raise DomainError(
            f"product trace {trace!r} is not close to an integer; inputs do "
            f"not look like commuting projections"
        )
    return int(rounded)


def intersection_rank_small(
    d: Description,
    cap: int = DEFAULT_ORACLE_CAP,
) -> int:
    """Rank of the product of all embedded projections over the full space.

    Because the projections commute, their product is itself the
    projection onto the intersection of their ranges, and its trace is
    the intersection's dimension.  A valid circuit description always
    yields 1: the intersection is the span of the output state.
    """
    n = d.n_qubits
    _check_cap(n, cap, "rank check")
    product = np.eye(1 << n, dtype=complex)
    for p in d.projections:
        product = apply_local(p.matrix, product, list(p.support), n)
    return int(round(float(np.trace(product).real)))


# ---------------------------------------------------------------------------
# Order independence of runtime assertions


def joint_pass_probability(
    state: np.ndarray,
    entries: Sequence,
    order: Sequence[int],
    n_qubits: int,
) -> float:
    """Probability that every measurement passes, in the given order.

    Equals the squared norm of the ordered projection product applied
    to the state.  No commutation guard: this is the raw quantity whose
    order dependence :func:`order_independence_check` measures.
    """
    psi = np.asarray(state, dtype=complex).reshape(-1)
    for i in order:
        entry = entries[i]
        psi = apply_local(entry.matrix, psi, list(entry.support), n_qubits)
    return float(np.vdot(psi, psi).real)


def order_independence_check(
    state: np.ndarray,
    assertions,
    trials: int,
    seed: int | None = None,
    commute_tol: float = 1e-8,
) -> float:
    """Largest deviation of the all-pass probability across orderings.

    Computes the probability that the whole measurement chain passes in
    the listed order, then in ``trials`` random permutations, and
    returns the maximum absolute deviation.  Takes the assertions
    ``runtime_assert`` takes and rejects the same non-commuting tuples.
    """
    entries = _entries(assertions)
    psi = np.asarray(state, dtype=complex).reshape(-1)
    dim = psi.size
    n = dim.bit_length() - 1
    if dim < 2 or dim != 1 << n:
        raise DomainError(f"state dimension {dim} is not a power of two")
    if trials < 0:
        raise DomainError(f"trials must be non-negative, got {trials}")
    _check_entry_shapes(entries, n)
    _check_commuting(entries, commute_tol)
    m = len(entries)
    baseline = joint_pass_probability(psi, entries, range(m), n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        order = rng.permutation(m)
        p = joint_pass_probability(psi, entries, order, n)
        worst = max(worst, abs(p - baseline))
    return worst


# ---------------------------------------------------------------------------
# Named circuit pairs with known equivalence verdicts: three
# implementations of a doubly controlled single-qubit gate (CC-U), a
# diagonal depth-4 variant, and 20-qubit embeddings of the interesting
# pairs.


def _controlled(u: np.ndarray) -> np.ndarray:
    """Two-qubit controlled-``u`` with the control as the first qubit."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


def _ccu(u: np.ndarray) -> np.ndarray:
    """Three-qubit doubly controlled ``u``: applies ``u`` iff both controls are 1."""
    out = np.eye(8, dtype=complex)
    out[6:, 6:] = u
    return out


#: Two-qubit gate on listed qubits ``(a, b)`` that flips ``b`` exactly
#: when ``a`` is 0: it maps ``|00> -> |01>``, ``|01> -> |00>`` and fixes
#: ``|10>`` and ``|11>``.
_FLIP_IF_ZERO = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def _ccu_direct(u: np.ndarray) -> Circuit:
    """CC-U as a single primitive three-qubit gate on (0, 1, 2)."""
    return Circuit(3, (Layer((Gate((0, 1, 2), _ccu(u)),)),))


def _ccu_decomposed(w: np.ndarray) -> Circuit:
    """CC-U from two-qubit gates, for any ``w`` with ``w @ w = u``.

    The textbook five-gate ladder: controlled-``w`` and its inverse
    bracketing CNOTs arrange for ``w**2`` on the target exactly when
    both controls are 1.  Uses the non-adjacent pair (0, 2), so it is
    not one-dimensional.
    """
    cw = _controlled(w)
    cwd = _controlled(dagger(w))
    cnot = NAMED_GATES["CNOT"]
    return Circuit(
        3,
        (
            Layer((Gate((1, 2), cw),)),
            Layer((Gate((0, 1), cnot, "CNOT"),)),
            Layer((Gate((1, 2), cwd),)),
            Layer((Gate((0, 1), cnot, "CNOT"),)),
            Layer((Gate((0, 2), cw),)),
        ),
    )


def _ccu_swap_based(w: np.ndarray) -> Circuit:
    """CC-U from nearest-neighbor two-qubit gates only, depth 6.

    Replaces the decomposed form's long-range controlled-``w`` by
    routing: a fused CNOT-then-SWAP brings the outer control next to
    the target, the controlled-``w`` fires locally, and a final SWAP
    restores the qubit order.  The target accumulates
    ``w^(b) . w†^(a XOR b) . w^(a) = w^(2ab)``, which is ``u`` exactly
    when both controls are 1.
    """
    cw = _controlled(w)
    cwd = _controlled(dagger(w))
    cnot = NAMED_GATES["CNOT"]
    swap = NAMED_GATES["SWAP"]
    cnot_then_swap = swap @ cnot
    return Circuit(
        3,
        (
            Layer((Gate((1, 2), cw),)),
            Layer((Gate((0, 1), cnot, "CNOT"),)),
            Layer((Gate((1, 2), cwd),)),
            Layer((Gate((0, 1), cnot_then_swap),)),
            Layer((Gate((1, 2), cw),)),
            Layer((Gate((0, 1), swap, "SWAP"),)),
        ),
    )


def _phase_root(theta: float) -> np.ndarray:
    """``diag(exp(-i theta/2), exp(+i theta/2))``, a square root of the
    diagonal phase gate ``diag(exp(-i theta), exp(+i theta))``."""
    return np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]],
        dtype=complex,
    )


def _ccu_diagonal_direct(theta: float) -> Circuit:
    """CC-U for the diagonal ``u = diag(exp(-i theta), exp(+i theta))``."""
    u = np.array(
        [[np.exp(-1j * theta), 0.0], [0.0, np.exp(1j * theta)]], dtype=complex
    )
    return _ccu_direct(u)


def _ccu_diagonal_depth4(theta: float, first_theta: float | None = None) -> Circuit:
    """Depth-4 CC-U for a diagonal ``u``, built from two-qubit gates.

    The flip-if-zero gate temporarily encodes the parity of qubits 1
    and 2 into qubit 1; a controlled phase root on (0, 1) then a
    controlled phase root on (0, 2) leave the total phase
    ``theta * q0 * q1 * (2 q2 - 1)``, which is exactly the diagonal
    CC-U.  ``first_theta`` overrides the angle of the first controlled
    phase root only, which breaks the identity everywhere except on
    inputs with qubit 0 clear; the perturbed circuit therefore still
    fixes the all-zeros state and only a strong check can tell it apart
    from the exact construction.
    """
    t1 = theta if first_theta is None else first_theta
    cw1 = _controlled(_phase_root(t1))
    cw2 = _controlled(_phase_root(theta))
    return Circuit(
        3,
        (
            Layer((Gate((2, 1), _FLIP_IF_ZERO),)),
            Layer((Gate((0, 1), cw1),)),
            Layer((Gate((2, 1), _FLIP_IF_ZERO),)),
            Layer((Gate((0, 2), cw2),)),
        ),
    )


def _with_idle_fillers(c: Circuit, n_qubits: int = 20) -> Circuit:
    """Embed a 3-qubit fixture into a wide circuit of identity fillers.

    The fixture keeps qubits (0, 1, 2); every layer additionally
    carries two-qubit identity gates on the fixed pairs (3, 4), (5, 6),
    ..., (17, 18).  The fillers are ordinary gates processed like any
    other, but because the pairing never changes between layers the
    backward light cones of the spectator qubits stay two qubits wide
    instead of cascading, which keeps wide-circuit checks within desk
    memory.  Qubit 19 stays idle when ``n_qubits`` is even.
    """
    if c.n_qubits != 3:
        raise DomainError(
            f"filler embedding expects a 3-qubit fixture, got {c.n_qubits}"
        )
    if n_qubits < 5:
        raise DomainError(f"embedding width must be at least 5, got {n_qubits}")
    eye4 = np.eye(4, dtype=complex)
    fillers = tuple(
        Gate((q, q + 1), eye4) for q in range(3, n_qubits - 1, 2)
    )
    layers = tuple(Layer(layer.gates + fillers) for layer in c.layers)
    return Circuit(n_qubits, layers)


def micro_fixtures(
    seed: int | np.random.Generator | None = None,
) -> list[tuple[str, Circuit, Circuit, str]]:
    """Named circuit pairs with known equivalence verdicts.

    Returns ``(name, c0, c1, expected)`` tuples where ``expected`` is
    the true unitary-level (strong) verdict.  The perturbed pairs still
    agree on the all-zeros input, so a weak check passes them; they
    exist precisely to exercise the weak/strong separation.

    Each call draws a fresh Haar single-qubit gate for the CC-U triple
    and a fresh angle for the diagonal variant; pass a seed for
    reproducible fixtures.
    """
    rng = np.random.default_rng(seed)
    w = haar_unitary(1, rng)
    theta = float(rng.uniform(0.0, 2.0 * np.pi))

    direct = _ccu_direct(w @ w)
    decomposed = _ccu_decomposed(w)
    swap_based = _ccu_swap_based(w)
    diag_direct = _ccu_diagonal_direct(theta)
    diag_depth4 = _ccu_diagonal_depth4(theta)
    diag_perturbed = _ccu_diagonal_depth4(theta, first_theta=theta + 0.1)

    wide: Callable[[Circuit], Circuit] = _with_idle_fillers
    return [
        ("ccu-direct-vs-decomposed", direct, decomposed, "equivalent"),
        ("ccu-direct-vs-swap", direct, swap_based, "equivalent"),
        ("ccu-decomposed-vs-swap", decomposed, swap_based, "equivalent"),
        ("ccu-diagonal-depth4", diag_direct, diag_depth4, "equivalent"),
        ("ccu-diagonal-perturbed", diag_direct, diag_perturbed, "inequivalent"),
        ("ccu-swap-embedded-20q", wide(direct), wide(swap_based), "equivalent"),
        ("ccu-diagonal-embedded-20q", wide(diag_direct), wide(diag_depth4), "equivalent"),
        ("ccu-perturbed-embedded-20q", wide(diag_direct), wide(diag_perturbed), "inequivalent"),
    ]
