"""Brute-force state-vector simulation.

:func:`simulate` works over all ``2**n`` amplitudes, so a hard cap keeps
inputs at desk scale.  The CLI's ``simulate`` command and runtime
assertions run on its output, and the test suite uses it as the ground
truth that the description, equivalence, and assertion engines are
validated against: it shares no algorithmic machinery with them beyond
elementary tensor contraction, one gate per ``linalg.apply_local`` call.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, validate
from .config import DEFAULT_ORACLE_CAP
from .errors import CapacityError, DomainError, ValidationError
from .linalg import apply_local, zero_state

__all__ = ["simulate"]


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
