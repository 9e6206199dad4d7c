"""Brute-force state-vector simulation and subspace utilities.

Everything here works over all ``2**n`` amplitudes, so a hard cap keeps
inputs at desk scale.  The simulator is the ground truth that the
description, equivalence, and assertion engines are validated against
in the test suite; it shares no algorithmic machinery with them beyond
elementary tensor contraction, one gate per ``linalg.apply_local`` call.

Density matrices are plain numpy arrays expected to be Hermitian,
positive semidefinite, and trace one within 1e-10 when they represent
physical states.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .circuit import Circuit, gate_in_sorted_order, validate
from .config import DEFAULT_ORACLE_CAP
from .errors import CapacityError, DomainError, ValidationError
from .linalg import _integral, apply_local, embed, identity, max_abs, zero_state

__all__ = [
    "equal_up_to_phase",
    "full_unitary",
    "partial_trace",
    "simulate",
    "subspace_dim",
]


def _check_cap(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise CapacityError(
            f"{what} over 2**{n} amplitudes exceeds the brute-force cap of "
            f"{cap} qubits",
            size=n,
            cap=cap,
        )


def simulate(
    c: Circuit,
    input_state: np.ndarray | None = None,
    cap: int = DEFAULT_ORACLE_CAP,
) -> np.ndarray:
    """Apply the circuit to a state, layer by layer, gate by gate.

    Parameters
    ----------
    c
        A valid circuit on at most ``cap`` qubits.
    input_state
        Optional state of dimension ``2**n``; defaults to all zeros.
    cap
        Qubit cap for the dense computation.

    Returns
    -------
    numpy.ndarray
        The output state vector.  Norm is preserved to within 1e-12 per
        layer since every gate is unitary.
    """
    n = c.n_qubits
    _check_cap(n, cap, "simulation")
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    if input_state is None:
        state = zero_state(n)
    else:
        state = np.array(input_state, dtype=complex).reshape(-1)
        if state.size != 1 << n:
            raise DomainError(
                f"input state has {state.size} amplitudes, expected {1 << n}"
            )
    for layer in c.layers:
        for g in layer.gates:
            state = apply_local(g.matrix, state, g.qubits, n)
    return state


def full_unitary(c: Circuit, cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Dense ``2**n`` unitary of the whole circuit.

    Built as an explicit product of per-layer embedded gate matrices, a
    deliberately different evaluation path from :func:`simulate`'s
    contraction, which makes the two useful as independent witnesses of
    each other in tests.
    """
    n = c.n_qubits
    _check_cap(n, cap, "matrix build")
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    total = identity(n)
    full = list(range(n))
    for layer in c.layers:
        layer_matrix = identity(n)
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

    Parameters
    ----------
    rho
        Density matrix on ``total`` qubits.
    keep
        Qubit indices to keep; the result's basis is ordered by
        ascending qubit index regardless of the order given here.
    total
        Total qubit count of ``rho``.
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
    trace counts the dimension.  Non-commuting inputs have no such
    product shortcut and are rejected.

    Parameters
    ----------
    projections
        Non-empty list of equal-dimension projection matrices, already
        embedded into their common space.
    tol
        Entrywise bound for the pairwise commutator check.

    Raises
    ------
    DomainError
        If the list is empty, dimensions differ, a pair fails to
        commute (the message names the offending pair), or the product
        trace is not near an integer.
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
