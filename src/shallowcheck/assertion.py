"""Verification of local-projection assertions about circuit outputs.

An assertion tuple is a list of local projections that the output state
of a circuit is claimed to satisfy.  Two checking modes exist:

* :func:`verify_static` decides each claim exactly, without simulating
  the whole state: the output satisfies ``Q`` iff the all-zeros input
  satisfies the back-propagated projection ``U† Q U``.  It is one call
  of :func:`.cone.cone_residuals` on a backward walk, the loop the
  weak check runs forward: supports grow by the light-cone walker the
  description engine uses, and the membership test runs on a
  ``16·2^w``-byte state vector over the ``w`` cone qubits rather than
  on the ``16·4^w``-byte projection, so the check stays linear in
  qubit count for fixed depth.

* :func:`runtime_assert` simulates what measuring the assertions one by
  one would do to a state: each projection becomes a two-outcome
  projective measurement that either leaves the state in the claimed
  subspace (outcome 0) or aborts the run (outcome 1).  The tuple must
  pairwise commute; otherwise the outcome statistics would depend on
  measurement order and the semantics would be ambiguous, so such
  tuples are rejected up front.

Assertion tuples are unconstrained in length, may repeat supports, and
serialize with the same JSON schema as descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import Circuit, validate
from .cone import cone_residuals
from .config import EQUIV_THRESHOLD, _checked_threshold, support_cap
from .description import Description, LocalProjection, commutator_deviations
from .errors import DomainError, ValidationError
from .linalg import ErrorTriple, apply_local, is_projection

__all__ = [
    "RuntimeAssertReport",
    "StaticCheck",
    "runtime_assert",
    "verify_static",
]

_PAULI_FLIPS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _entries(assertions) -> tuple[LocalProjection, ...]:
    if isinstance(assertions, Description):
        return assertions.projections
    entries = tuple(assertions)
    for i, e in enumerate(entries):
        if not isinstance(e, LocalProjection):
            raise DomainError(
                f"assertion {i} must be a LocalProjection, got {type(e).__name__}"
            )
    return entries


def _check_entry_shapes(entries: Sequence[LocalProjection], n_qubits: int) -> None:
    for i, e in enumerate(entries):
        if e.support[-1] >= n_qubits:
            raise DomainError(
                f"assertion {i} touches qubit {e.support[-1]}, out of range "
                f"for {n_qubits} qubit(s)"
            )
        if not is_projection(e.matrix, 1e-8):
            raise DomainError(f"assertion {i} is not a projection matrix")


def _check_commuting(
    entries: Sequence[LocalProjection], tol: float
) -> None:
    """Reject tuples with a non-commuting overlapping pair."""
    tol = _checked_threshold(tol, "commute_tol")
    for i, j, dev in commutator_deviations(entries):
        if dev > tol:
            raise DomainError(
                f"assertions {i} and {j} do not commute (max deviation "
                f"{dev:.3e}); sequential measurement outcomes would "
                f"depend on their order"
            )


@dataclass(frozen=True)
class StaticCheck:
    """Verdict for one assertion entry under static verification.

    ``support`` is the back-propagated support the entry ended on and
    ``residual`` the membership defect of the all-zeros state there.
    """

    index: int
    holds: bool
    support: tuple[int, ...]
    residual: ErrorTriple


def verify_static(
    c: Circuit,
    assertions,
    threshold: float = EQUIV_THRESHOLD,
    cap: int | None = None,
) -> list[StaticCheck]:
    """Decide each assertion exactly by backward propagation.

    The output of ``c`` on the all-zeros input satisfies projection
    ``Q`` exactly when the all-zeros input satisfies ``U† Q U``, the
    conjugation of ``Q`` backward through the circuit.  Walking layers
    last to first, each entry's support grows by the overlapping gates'
    qubits; the membership residual of the all-zeros state on the final
    support decides the verdict.  It is computed on the cone's state
    vector, ``U† Q U|0...0>``, so ``U† Q U`` is never formed.

    Entries are evaluated independently and the list always covers all
    of them; there is no early exit on a failed entry.

    Parameters
    ----------
    c
        A valid circuit.
    assertions
        A :class:`Description` or a sequence of local projections; the
        entry count is unconstrained and supports may repeat.
    threshold
        Bound on the L-infinity residual for an entry to hold.
    cap
        Support cap override (at least 1) for the backward light cones.

    Raises
    ------
    DomainError
        If ``threshold`` is not a real number, is negative or is not
        finite.
    CapacityError
        If an entry's support would exceed the cap; the message names
        the assertion index and the layer reached.
    """
    threshold = _checked_threshold(threshold)
    violations = validate(c)
    if violations:
        raise ValidationError(violations)
    entries = _entries(assertions)
    _check_entry_shapes(entries, c.n_qubits)
    if cap is None:
        cap = support_cap()
    cones = cone_residuals(
        c,
        [(e.matrix, e.support) for e in entries],
        "assertion {}: support",
        cap,
        backward=True,
    )
    return [
        StaticCheck(index, residual.linf <= threshold, support, residual)
        for index, (support, residual) in enumerate(cones)
    ]


@dataclass(frozen=True)
class RuntimeAssertReport:
    """Outcome of one simulated measurement chain.

    ``outcome_log`` records one bit per measurement performed: 0 means
    the state passed (and collapsed into) the projection, 1 means the
    run aborted there.  ``state`` is the post-measurement state, either
    after all passes or after the aborting collapse.
    """

    result: str
    abort_index: int | None
    outcome_log: tuple[int, ...]
    seed: int | None
    state: np.ndarray

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_json(self) -> dict:
        """JSON-compatible dict; the post-state is not serialized."""
        return {
            "result": self.result,
            "abort_index": self.abort_index,
            "outcome_log": list(self.outcome_log),
            "seed": self.seed,
        }


def runtime_assert(
    state: np.ndarray,
    assertions,
    seed: int | None = None,
    commute_tol: float = 1e-8,
    noise: float = 0.0,
) -> RuntimeAssertReport:
    """Simulate measuring each assertion as a two-outcome projection.

    For each entry in order, the embedded projection and its complement
    form a projective measurement.  The pass outcome is sampled with
    the Born probability (the squared norm of the projected state); on
    a pass the state collapses into the projection and the chain
    continues, on a failure the run aborts with the complementary
    collapse.  A state that satisfies every assertion therefore passes
    with certainty and is left unchanged up to normalization.

    Parameters
    ----------
    state
        Normalized state vector on ``2**n`` amplitudes.
    assertions
        Pairwise-commuting tuple; non-commuting tuples are rejected
        with the offending pair, since their outcome statistics would
        depend on measurement order.
    seed
        Seed for the outcome sampling (and the optional noise).
    commute_tol
        Entrywise bound for the commutation pre-check; a bound that is
        not a real number, negative or not finite is a
        :class:`DomainError`.
    noise
        Optional per-qubit error probability.  Before the measurement
        chain, each qubit independently suffers a uniformly random
        Pauli flip with this probability, a stochastic stand-in for
        depolarizing noise that demonstrates abort-based error
        detection.  Zero (the default) disables it; anything but a real
        number in ``[0, 1]`` is a :class:`DomainError`.
    """
    entries = _entries(assertions)
    psi = np.array(state, dtype=complex).reshape(-1)
    dim = psi.size
    n = dim.bit_length() - 1
    if dim < 2 or dim != 1 << n:
        raise DomainError(f"state dimension {dim} is not a power of two")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-6:
        raise DomainError(f"state is not normalized (norm {norm!r})")
    noise = _checked_threshold(noise, "noise")
    if noise > 1.0:
        raise DomainError(f"noise must be a probability, got {noise!r}")
    _check_entry_shapes(entries, n)
    _check_commuting(entries, commute_tol)
    rng = np.random.default_rng(seed)
    if noise > 0.0:
        for q in range(n):
            if rng.random() < noise:
                flip = _PAULI_FLIPS[rng.integers(3)]
                psi = apply_local(flip, psi, [q], n)
    log: list[int] = []
    for index, entry in enumerate(entries):
        projected = apply_local(entry.matrix, psi, list(entry.support), n)
        p_pass = min(1.0, float(np.vdot(projected, projected).real))
        if rng.random() < p_pass:
            log.append(0)
            psi = projected / np.sqrt(p_pass)
        else:
            log.append(1)
            rest = psi - projected
            rest_norm = float(np.linalg.norm(rest))
            if rest_norm > 0.0:
                psi = rest / rest_norm
            return RuntimeAssertReport(
                result="abort",
                abort_index=index,
                outcome_log=tuple(log),
                seed=seed,
                state=psi,
            )
    return RuntimeAssertReport(
        result="pass",
        abort_index=None,
        outcome_log=tuple(log),
        seed=seed,
        state=psi,
    )
