"""Weak and strong circuit-equivalence checking.

Two circuits are weakly equivalent when they send the all-zeros input
to the same state up to a global phase, and strongly equivalent when
they agree (up to phase) on every input.  The weak check composes the
first circuit with the inverse of the second and asks whether the
all-zeros state satisfies the composite's local-projection description;
the residuals of that membership test are the report's diagnostics.
Each entry is tested by :func:`.cone.cone_residuals` on a state vector
over its light cone (``16·2^w`` bytes for a cone of ``w`` qubits), the
same loop the static assertion check runs backward, so the dense
``16·4^w``-byte projections that ``compute_description`` emits are
never formed here; their residuals agree with the dense path to
rounding.
The strong check reduces to the weak one by doubling both circuits with
Bell-pair preparations, which turns agreement on every input into
agreement on a single state.

Verdicts are decided by a single threshold on the largest L-infinity
residual.  Inequivalent random circuits produce residuals of order one
while numerical drift stays below 1e-10, so the default threshold of
1e-7 sits in an empty band; reports carry a warning flag when a result
lands within a factor of ten of the threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuit import Circuit, adjoint, choi_extend, concat, validate
from .cone import ZERO_PROJECTOR, cone_residuals
from .config import EQUIV_THRESHOLD, _checked_threshold, support_cap
from .errors import DomainError, ValidationError

__all__ = [
    "EquivalenceReport",
    "ResidualEntry",
    "check_strong",
    "check_weak",
]


@dataclass(frozen=True)
class ResidualEntry:
    """Residual metrics for one projection of the composite description."""

    support: tuple[int, ...]
    l1: float
    l2: float
    linf: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one equivalence check.

    ``verdict`` is ``"equivalent"`` exactly when ``max_linf`` is at most
    ``threshold``.  ``warning`` flags near-threshold results (within a
    factor of ten on either side), which deserve a human look.
    ``max_support`` is the largest projection support encountered, the
    quantity that governs memory use.  Global phases are never compared
    directly; they cancel in the residuals by construction.
    """

    mode: str
    verdict: str
    threshold: float
    max_linf: float
    residuals: tuple[ResidualEntry, ...]
    max_support: int
    seconds: float
    warning: bool

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def to_json(self) -> dict:
        """JSON-compatible dict with the documented report fields."""
        return {
            "mode": self.mode,
            "verdict": self.verdict,
            "threshold": self.threshold,
            "max_linf": self.max_linf,
            "residuals": [
                {
                    "support": list(r.support),
                    "l1": r.l1,
                    "l2": r.l2,
                    "linf": r.linf,
                }
                for r in self.residuals
            ],
            "max_support": self.max_support,
            "seconds": self.seconds,
            "warning": self.warning,
        }


def _validated_pair(c0: Circuit, c1: Circuit) -> None:
    for c, which in ((c0, "first circuit"), (c1, "second circuit")):
        violations = validate(c)
        if violations:
            raise ValidationError([f"{which}: {v}" for v in violations])
    if c0.n_qubits != c1.n_qubits:
        raise DomainError(
            f"cannot compare circuits on {c0.n_qubits} and {c1.n_qubits} qubits"
        )


def _weak_report(
    composite: Circuit, threshold: float, mode: str, start: float
) -> EquivalenceReport:
    """The weak check of a valid composite ``V = c0 · c1†``, timed from ``start``.

    Entry ``t`` of ``V`` is the projection ``V Π_t V†`` with
    ``Π_t = |0><0|`` on qubit ``t``, whose residual the forward cone
    walk of ``V`` gives.
    """
    cones = cone_residuals(
        composite,
        [(ZERO_PROJECTOR, (t,)) for t in range(composite.n_qubits)],
        "support of qubit {}",
        support_cap(),
    )
    residuals = [ResidualEntry(support, *triple) for support, triple in cones]
    seconds = time.perf_counter() - start
    max_linf = max(r.linf for r in residuals)
    verdict = "equivalent" if max_linf <= threshold else "inequivalent"
    return EquivalenceReport(
        mode=mode,
        verdict=verdict,
        threshold=threshold,
        max_linf=max_linf,
        residuals=tuple(residuals),
        max_support=max(len(r.support) for r in residuals),
        seconds=seconds,
        warning=threshold / 10 <= max_linf <= threshold * 10,
    )


def check_weak(
    c0: Circuit,
    c1: Circuit,
    threshold: float = EQUIV_THRESHOLD,
) -> EquivalenceReport:
    """Decide whether two circuits agree on the all-zeros input.

    Builds the composite circuit that applies ``c0`` and then the
    inverse of ``c1``; the two agree on the all-zeros input up to a
    phase exactly when that composite fixes the all-zeros state, which
    in turn holds exactly when the all-zeros state satisfies every
    projection of the composite's description.  Each projection is
    tested on its light cone's state vector without being formed.

    Parameters
    ----------
    c0, c1
        Valid circuits on the same qubit count.
    threshold
        Verdict bound on the largest L-infinity residual.

    Raises
    ------
    ValidationError
        If either circuit is invalid.
    DomainError
        On a qubit-count mismatch, or a threshold that is negative or
        not finite.
    CapacityError
        If a light cone of the composite would exceed the support cap;
        the message names the qubit and the composite's layer.
    """
    threshold = _checked_threshold(threshold)
    _validated_pair(c0, c1)
    start = time.perf_counter()
    return _weak_report(concat(c0, adjoint(c1)), threshold, "weak", start)


def check_strong(
    c0: Circuit,
    c1: Circuit,
    threshold: float = EQUIV_THRESHOLD,
) -> EquivalenceReport:
    """Decide whether two circuits agree on every input.

    Doubles both circuits with Bell-pair preparation layers and runs
    the weak check on the results: the doubled circuits' outputs on the
    all-zeros input encode the full unitaries, so agreement there is
    agreement everywhere.  Support sizes roughly double relative to the
    weak check; the report's ``max_support`` records what was reached.
    The inputs are validated once; their doublings are valid by
    construction and are not validated again.
    """
    threshold = _checked_threshold(threshold)
    _validated_pair(c0, c1)
    start = time.perf_counter()
    composite = concat(choi_extend(c0), adjoint(choi_extend(c1)))
    return _weak_report(composite, threshold, "strong", start)
