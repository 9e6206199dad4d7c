"""Seeded inputs, timed operations and reference checks for each workload.

Every input is drawn here from a seed, with numpy alone: the library's
own generators are not used, so a refactor that moves them cannot
change what is measured.  Each operation is one call to a name in
``shallowcheck.__all__``; everything else (input generation, the
brute-force reference, the verdict known by construction) runs outside
the timed region.

The reference state-vector simulator below is written independently of
``shallowcheck.oracle`` so a defect shared by the library and its own
oracle still shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import shallowcheck as sc

#: Range of the phases drawn for ``phase_11``; it stays clear of 0 so a
#: phase gate is never close to the identity.
_PHASE_BAND = (0.5, 2.0 * math.pi - 0.5)


def rng_for(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for input ``index`` of a run seeded ``seed``."""
    return np.random.default_rng([seed, index, stream])


def haar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random ``dim x dim`` unitary: QR of a Ginibre matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _pairs(n: int, start: int) -> list[tuple[int, int]]:
    return [(q, q + 1) for q in range(start, n - 1, 2)]


def brickwork(n: int, depth: int, rng: np.random.Generator) -> sc.Circuit:
    """1D brickwork of Haar two-qubit gates; layer ``l`` pairs from ``l % 2``."""
    return sc.Circuit(
        n,
        [
            sc.Layer([sc.Gate(p, haar(4, rng)) for p in _pairs(n, layer % 2)])
            for layer in range(depth)
        ],
    )


def paired_ladder(n: int, depth: int, rng: np.random.Generator) -> sc.Circuit:
    """Haar two-qubit gates on the fixed pairs (0, 1), (2, 3), ... in every layer."""
    return sc.Circuit(
        n,
        [
            sc.Layer([sc.Gate(p, haar(4, rng)) for p in _pairs(n, 0)])
            for _ in range(depth)
        ],
    )


def phase_11(phi: float) -> np.ndarray:
    """``diag(1, 1, 1, e^{i phi})``: fixes ``|00>`` but is not the identity."""
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)]).astype(complex)


def _gates(c: sc.Circuit):
    return [g for layer in c.layers for g in layer.gates]


# ---------------------------------------------------------------------------
# Reference computations, independent of the library's algorithms.


def apply(op: np.ndarray, state: np.ndarray, qubits, n: int) -> np.ndarray:
    """Apply a ``2^k`` operator to the listed qubits of an ``n``-qubit state.

    Qubit 0 is the most significant bit, and the first listed qubit is
    the most significant bit of ``op``'s index, as in the library.
    """
    k = len(qubits)
    t = state.reshape((2,) * n)
    t = np.moveaxis(t, list(qubits), list(range(k))).reshape(1 << k, -1)
    t = (op @ t).reshape((2,) * n)
    return np.moveaxis(t, list(range(k)), list(qubits)).reshape(-1)


def simulate(c: sc.Circuit) -> np.ndarray:
    """Output state of ``c`` on the all-zeros input."""
    state = np.zeros(1 << c.n_qubits, dtype=complex)
    state[0] = 1.0
    for g in _gates(c):
        state = apply(g.matrix, state, g.qubits, c.n_qubits)
    return state


def forward_cone(c: sc.Circuit, t: int) -> tuple[int, ...]:
    """Qubits reached from ``t`` by following gates in layer order."""
    cone = {t}
    for layer in c.layers:
        grown = set(cone)
        for g in layer.gates:
            if cone.intersection(g.qubits):
                grown.update(g.qubits)
        cone = grown
    return tuple(sorted(cone))


def satisfies(p: sc.LocalProjection, state: np.ndarray, n: int) -> float:
    """Euclidean norm of ``P psi - psi`` with ``P`` embedded on its support."""
    return float(np.linalg.norm(apply(p.matrix, state, p.support, n) - state))


def pair_blocks(c: sc.Circuit) -> dict[tuple[int, int], np.ndarray]:
    """Product of the gates on each fixed pair of a paired-ladder circuit."""
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for layer in c.layers:
        for g in layer.gates:
            blocks[g.qubits] = g.matrix @ blocks.get(g.qubits, np.eye(4))
    return blocks


def same_unitary_by_pairs(c0: sc.Circuit, c1: sc.Circuit) -> bool:
    """Strong equivalence of two paired-ladder circuits.

    The unitary is a tensor product of one 4x4 block per pair, so the
    two agree up to a global phase exactly when every pair's blocks do.
    """
    b0, b1 = pair_blocks(c0), pair_blocks(c1)
    eye = np.eye(4)
    return all(
        abs(np.trace(b0.get(p, eye).conj().T @ b1.get(p, eye))) / 4 > 1 - 1e-9
        for p in set(b0) | set(b1)
    )


# ---------------------------------------------------------------------------
# Workloads.


@dataclass(frozen=True)
class Op:
    """One timed public call on a generated input, with its reference."""

    kind: str
    qubits: int
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Span name of the timed public call in the traced run.
    root: str
    #: Number of operation kinds, cycled in a fixed order.
    cycle: int
    make: Callable[[int, int], Op]


def _describe_dense(seed: int, index: int) -> Op:
    n, depth = 14, 5
    c = brickwork(n, depth, rng_for(seed, index))

    def check(d) -> bool:
        if d.n_qubits != n or len(d.projections) != n:
            return False
        state = simulate(c)
        for t, p in enumerate(d.projections):
            if p.support != forward_cone(c, t):
                return False
            # A projection of rank half its dimension; rules out the
            # identity, which every state satisfies.
            if abs(np.trace(p.matrix).real - (1 << (len(p.support) - 1))) > 1e-8:
                return False
            if satisfies(p, state, n) > 1e-8:
                return False
        return True

    return Op("describe", n, lambda: sc.compute_description(c), check)


_WEAK_KINDS = ("phased", "prefixed", "independent")


def _weak_check(seed: int, index: int) -> Op:
    n, depth = 14, 3
    kind = _WEAK_KINDS[index % len(_WEAK_KINDS)]
    rng = rng_for(seed, index)
    c0 = brickwork(n, depth, rng)
    if kind == "phased":
        c1 = sc.Circuit(
            n,
            [
                sc.Layer(
                    [sc.Gate(g.qubits, np.exp(1j * rng.uniform(0, 2 * math.pi)) * g.matrix)
                     for g in layer.gates]
                )
                for layer in c0.layers
            ],
        )
        expected = "equivalent"
    elif kind == "prefixed":
        prefix = sc.Layer(
            [sc.Gate(p, phase_11(rng.uniform(*_PHASE_BAND))) for p in _pairs(n, 0)]
        )
        c1 = sc.Circuit(n, (prefix,) + c0.layers)
        expected = "equivalent"
    else:
        c1 = brickwork(n, depth, rng_for(seed, index, stream=1))
        expected = "inequivalent"

    def check(report) -> bool:
        overlap = abs(np.vdot(simulate(c0), simulate(c1)))
        oracle = "equivalent" if overlap > 1 - 1e-9 else "inequivalent"
        return report.verdict == oracle == expected

    return Op(kind, n, lambda: sc.check_weak(c0, c1), check)


_STRONG_KINDS = ("merged", "phase11", "perturbed")


def _strong_narrow(seed: int, index: int) -> Op:
    n, depth = 40, 6
    kind = _STRONG_KINDS[index % len(_STRONG_KINDS)]
    rng = rng_for(seed, index)
    c0 = paired_ladder(n, depth, rng)
    if kind == "merged":
        c1 = sc.Circuit(
            n,
            [
                sc.Layer(
                    [sc.Gate(a.qubits, b.matrix @ a.matrix)
                     for a, b in zip(first.gates, second.gates)]
                )
                for first, second in zip(c0.layers[0::2], c0.layers[1::2])
            ],
        )
        expected = "equivalent"
    elif kind == "phase11":
        prefix = sc.Layer(
            [sc.Gate(p, phase_11(rng.uniform(*_PHASE_BAND))) for p in _pairs(n, 0)]
        )
        c1 = sc.Circuit(n, (prefix,) + c0.layers)
        expected = "inequivalent"
    else:
        layer_at = int(rng.integers(depth))
        gate_at = int(rng.integers(n // 2))
        layers = list(c0.layers)
        gates = list(layers[layer_at].gates)
        gates[gate_at] = sc.Gate(gates[gate_at].qubits, haar(4, rng))
        layers[layer_at] = sc.Layer(gates)
        c1 = sc.Circuit(n, layers)
        expected = "inequivalent"

    def check(report) -> bool:
        oracle = "equivalent" if same_unitary_by_pairs(c0, c1) else "inequivalent"
        return report.verdict == oracle == expected

    return Op(kind, n, lambda: sc.check_strong(c0, c1), check)


_STATIC_KINDS = ("own", "foreign")


def _assert_static(seed: int, index: int) -> Op:
    n, depth = 14, 3
    kind = _STATIC_KINDS[index % len(_STATIC_KINDS)]
    c = brickwork(n, depth, rng_for(seed, index))
    source = c if kind == "own" else brickwork(n, depth, rng_for(seed, index, stream=1))
    claims = sc.compute_description(source)

    def check(results) -> bool:
        if [r.index for r in results] != list(range(n)):
            return False
        state = simulate(c)
        holds = [satisfies(p, state, n) <= 1e-6 for p in claims.projections]
        if kind == "own" and not all(holds):
            return False
        return [r.holds for r in results] == holds

    return Op(kind, n, lambda: sc.verify_static(c, claims), check)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("describe-dense", "description.compute_description", 1, _describe_dense),
        Workload("weak-check", "equivalence.check_weak", len(_WEAK_KINDS), _weak_check),
        Workload("strong-narrow", "equivalence.check_strong", len(_STRONG_KINDS),
                 _strong_narrow),
        Workload("assert-static", "assertion.verify_static", len(_STATIC_KINDS),
                 _assert_static),
    )
}
