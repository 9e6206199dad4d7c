"""Named circuit pairs with known equivalence verdicts.

Three implementations of a doubly controlled single-qubit gate (CC-U),
a diagonal depth-4 variant, and 20-qubit embeddings of the interesting
pairs.  The test suite draws on them; the checks themselves do not.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .circuit import NAMED_GATES, Circuit, Gate, Layer, haar_unitary
from .errors import DomainError
from .linalg import dagger

__all__ = ["micro_fixtures"]


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
