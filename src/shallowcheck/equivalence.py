"""Weak and strong circuit-equivalence checking.

Two circuits are weakly equivalent when they send the all-zeros input
to the same state up to a global phase, and strongly equivalent when
they agree (up to phase) on every input.  The weak check composes the
first circuit with the inverse of the second and asks whether the
all-zeros state satisfies the composite's local-projection description;
the residuals of that membership test are the report's diagnostics.
Each entry is tested by :func:`.cone.cone_residuals` on a state vector
over its light cone (``16·2^w`` bytes for a cone of ``w`` qubits), the
same loop the static assertion check runs on the inverse circuit's
views, so the dense ``16·4^w``-byte projections that
``compute_description`` emits are never formed here; their residuals
agree with the dense path to rounding.
The strong check reduces to the weak one by doubling both circuits with
Bell-pair preparations, which turns agreement on every input into
agreement on a single state.

Neither check builds its composite circuit.  Each input is read once
per call into layer views (``circuit._tabled``), which also validate
it, and a composite is a list of views numbered by position: ``c0``'s
layers, then ``c1``'s inverse views (reversed, over one daggered copy
of its table), the composite ``concat(c0, adjoint(c1))`` builds; the
strong check shifts both up by ``n`` and walks them between the Bell
pair layer and its inverse, the composite
``concat(choi_extend(c0), adjoint(choi_extend(c1)))`` builds.

Verdicts are decided by a single threshold on the largest L-infinity
residual.  Inequivalent random circuits produce residuals of order one
while numerical drift stays below 1e-10, so the default threshold of
1e-7 sits in an empty band; reports carry a warning flag when a result
lands within a factor of ten of the threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .circuit import Circuit, _LayerView, _inverse, _pair_layer, _tabled
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


def _tabled_pair(
    c0: Circuit, c1: Circuit, offset: int
) -> tuple[list[_LayerView], list[_LayerView]]:
    """The layer views of valid ``c0`` and ``c1``, qubits shifted by ``offset``."""
    views = []
    for c, which in ((c0, "first circuit"), (c1, "second circuit")):
        layers, violations = _tabled(c, offset)
        if violations:
            raise ValidationError([f"{which}: {v}" for v in violations])
        views.append(layers)
    if c0.n_qubits != c1.n_qubits:
        raise DomainError(
            f"cannot compare circuits on {c0.n_qubits} and {c1.n_qubits} qubits"
        )
    return views[0], views[1]


def _weak_report(
    composite: list[_LayerView], n_qubits: int, threshold: float, mode: str, start: float
) -> EquivalenceReport:
    """The weak check of a valid composite ``V`` on ``n_qubits``, timed from ``start``.

    Entry ``t`` of ``V`` is the projection ``V Π_t V†`` with
    ``Π_t = |0><0|`` on qubit ``t``, whose residual the cone walk of
    ``V`` gives.  Capacity errors name the composite's layers, its
    views' positions.
    """
    cones = cone_residuals(
        [view._replace(layer=i) for i, view in enumerate(composite)],
        [(ZERO_PROJECTOR, (t,)) for t in range(n_qubits)],
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

    Walks the composite that applies ``c0`` and then the inverse of
    ``c1``, as views of the two inputs: ``c0``'s layers, then ``c1``'s
    in reverse order with each gate daggered.  The two agree on the
    all-zeros input up to a phase exactly when that composite fixes the
    all-zeros state, which in turn holds exactly when the all-zeros
    state satisfies every projection of the composite's description.
    Each projection is tested on its light cone's state vector without
    being formed.

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
        On a qubit-count mismatch, or a threshold that is not a real
        number, is negative or is not finite.
    CapacityError
        If a light cone of the composite would exceed the support cap;
        the message names the qubit and the composite's layer.
    """
    threshold = _checked_threshold(threshold)
    v0, v1 = _tabled_pair(c0, c1, 0)
    start = time.perf_counter()
    return _weak_report(v0 + _inverse(v1), c0.n_qubits, threshold, "weak", start)


def check_strong(
    c0: Circuit,
    c1: Circuit,
    threshold: float = EQUIV_THRESHOLD,
) -> EquivalenceReport:
    """Decide whether two circuits agree on every input.

    Doubles both circuits with Bell-pair preparation layers and runs
    the weak check on the results: the doubled circuits' outputs on the
    all-zeros input encode the full unitaries, so agreement there is
    agreement everywhere.  The doubled composite on ``2n`` qubits is
    walked as views: the pair layer, which puts the Bell pair gate on
    every ``(p, n + p)``, then ``c0``'s layers and the daggered, reversed
    layers of ``c1``, both shifted up by ``n``, then the pair layer
    daggered.  Support sizes roughly double relative to the weak check;
    the report's ``max_support`` records what was reached.  The inputs
    are validated once, as they are read; the doubling needs no check.
    Capacity errors name the qubit in the composite's numbering and its
    layer: 0 for the pair layer, then ``c0``'s, ``c1``'s and the
    closing pair layer.
    """
    threshold = _checked_threshold(threshold)
    n = c0.n_qubits
    v0, v1 = _tabled_pair(c0, c1, n)
    start = time.perf_counter()
    pair = _pair_layer(n)
    composite = [pair, *v0, *_inverse([pair, *v1])]
    return _weak_report(composite, 2 * n, threshold, "strong", start)
