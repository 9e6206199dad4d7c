"""Numerical tolerances and capacity limits.

The support cap bounds how many qubits any single dense operator may act
on.  It turns the shallow-circuit locality assumption into a runtime
guard: inputs whose backward light cones grow too large fail loudly with
a :class:`~shallowcheck.errors.CapacityError` instead of exhausting
memory.  The oracle cap plays the same role for brute-force state-vector
work over all ``2**n`` amplitudes.
"""

from __future__ import annotations

import math
import numbers
import os

from .errors import DomainError

#: Tolerance for structural predicates (projector and unitary checks).
STRUCTURAL_TOL = 1e-9

#: Default verdict threshold on the L-infinity residual for equivalence
#: checks.  Genuinely inequivalent random circuits produce residuals of
#: order one, while numerical drift stays many orders of magnitude
#: below this, so the verdict band is wide.
EQUIV_THRESHOLD = 1e-7

#: Default cap on the number of qubits in any single operator support.
DEFAULT_SUPPORT_CAP = 26

#: Default cap for brute-force simulation and full-space rank checks.
DEFAULT_ORACLE_CAP = 14

#: Largest gate arity the circuit validator accepts.  Three is enough to
#: host doubly controlled single-qubit gates as primitive fixtures.
DEFAULT_K_MAX = 3

#: Environment variable that overrides :data:`DEFAULT_SUPPORT_CAP`.
SUPPORT_CAP_ENV = "SHALLOWCHECK_SUPPORT_CAP"


def support_cap() -> int:
    """Return the support cap in force.

    Reads :data:`SUPPORT_CAP_ENV` on every call so tests and scripted
    runs can adjust the cap without touching library state.
    """
    raw = os.environ.get(SUPPORT_CAP_ENV)
    if raw is None:
        return DEFAULT_SUPPORT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(
            f"{SUPPORT_CAP_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise DomainError(f"{SUPPORT_CAP_ENV} must be at least 1, got {value}")
    return value


def _checked_threshold(threshold: float, what: str = "threshold") -> float:
    """``threshold`` as a float; :class:`DomainError` unless finite and at least 0.

    Only real numbers are accepted: ``int``, ``float`` and numpy reals.
    Strings, ``None``, complex numbers and ``bool`` are rejected, not
    converted.
    """
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real):
        raise DomainError(f"{what} must be a real number, got {threshold!r}")
    value = float(threshold)
    if not (math.isfinite(value) and value >= 0):
        raise DomainError(f"{what} must be finite and non-negative, got {threshold}")
    return value
