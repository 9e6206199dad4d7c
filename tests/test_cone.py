"""Differential tests of the cone-state kernel against the dense path.

The weak, strong and static checks compute residuals on a light cone's
state vector.  These tests hold them to the dense projections they
replace (within 1e-12) and their verdicts to the brute-force oracle, on
circuits with 3-qubit gates, unsorted and non-adjacent gate qubits,
empty layers, idle qubits and no layers at all.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shallowcheck.equivalence as equivalence
from shallowcheck import (
    CapacityError,
    Circuit,
    DomainError,
    Gate,
    Layer,
    LocalProjection,
    adjoint,
    check_strong,
    check_weak,
    choi_extend,
    compute_description,
    concat,
    equal_up_to_phase,
    full_unitary,
    haar_unitary,
    initial_state_residuals,
    membership_residual,
    random_circuit,
    simulate,
    verify_static,
    zero_state,
)
from shallowcheck.config import SUPPORT_CAP_ENV
from shallowcheck.linalg import apply_local, dagger, embed

TOL = 1e-12


@st.composite
def circuits(draw, max_qubits=6, max_depth=4, n=None):
    """Circuits of Haar gates on 1 to 3 qubits in shuffled qubit order.

    Gate qubits come from a permutation, so they are unsorted and often
    non-adjacent; some qubits stay idle in a layer and some layers are
    empty.  Depth 0 gives ``Circuit(n)`` with no layers.
    """
    if n is None:
        n = draw(st.integers(1, max_qubits))
    depth = draw(st.integers(0, max_depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for _ in range(depth):
        free = [int(q) for q in rng.permutation(n)]
        gates = []
        if rng.random() < 0.2:
            free = []
        while free:
            k = int(rng.integers(0, 4))
            if k == 0:
                free.pop()
                continue
            qubits, free = tuple(free[:k]), free[k:]
            gates.append(Gate(qubits, haar_unitary(len(qubits), rng)))
        layers.append(Layer(tuple(gates)))
    return Circuit(n, tuple(layers))


def _after_phase_layer(c: Circuit, phi: float) -> Circuit:
    """``c`` after a phase on ``|1>`` of every qubit: equal to ``c`` on ``|0...0>`` only."""
    gate = np.diag([1.0, np.exp(1j * phi)])
    phases = Layer(tuple(Gate((q,), gate) for q in range(c.n_qubits)))
    return Circuit(c.n_qubits, (phases,) + c.layers)


@st.composite
def pairs(draw, max_qubits=6, max_depth=4):
    """``(c0, c1)``: equal, equal on ``|0...0>`` only, or unrelated."""
    c0 = draw(circuits(max_qubits, max_depth))
    kind = draw(st.sampled_from(("same", "phase", "other")))
    if kind == "same":
        return c0, c0
    if kind == "phase":
        return c0, _after_phase_layer(c0, draw(st.floats(0.5, 2 * np.pi - 0.5)))
    return c0, draw(circuits(max_depth=max_depth, n=c0.n_qubits))


def _assert_residuals_match(report, description):
    triples = initial_state_residuals(description)
    assert len(report.residuals) == len(description.projections)
    for r, p, t in zip(report.residuals, description.projections, triples):
        assert r.support == p.support
        assert abs(r.l1 - t.l1) <= TOL
        assert abs(r.l2 - t.l2) <= TOL
        assert abs(r.linf - t.linf) <= TOL
    assert report.max_support == max(len(p.support) for p in description.projections)


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_weak_residuals_match_dense_description(pair):
    c0, c1 = pair
    dense = compute_description(concat(c0, adjoint(c1)))
    _assert_residuals_match(check_weak(c0, c1), dense)


@settings(max_examples=30, deadline=None)
@given(pairs(max_qubits=3, max_depth=3))
def test_strong_residuals_match_dense_description(pair):
    c0, c1 = pair
    dense = compute_description(concat(choi_extend(c0), adjoint(choi_extend(c1))))
    _assert_residuals_match(check_strong(c0, c1), dense)


def dense_static(c: Circuit, entry: LocalProjection):
    """Back-propagate ``entry`` as a dense matrix, scanning every gate."""
    support, p = list(entry.support), entry.matrix
    for layer in reversed(c.layers):
        touched = [g for g in layer.gates if set(g.qubits) & set(support)]
        if not touched:
            continue
        grown = sorted(set(support).union(*(g.qubits for g in touched)))
        p = embed(p, support, grown)
        axis = {q: i for i, q in enumerate(grown)}
        for g in touched:
            axes = [axis[q] for q in g.qubits]
            p = apply_local(dagger(g.matrix), p, axes, len(grown))
            p = apply_local(g.matrix.T, p.T, axes, len(grown)).T
        support = grown
    return tuple(support), membership_residual(p, zero_state(len(support)))


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_static_residuals_match_dense_back_propagation(pair):
    c, other = pair
    claims = compute_description(other).projections
    for check, entry in zip(verify_static(c, claims), claims):
        support, residual = dense_static(c, entry)
        assert check.support == support
        for got, want in zip(check.residual, residual):
            assert abs(got - want) <= TOL


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_weak_residuals_equal_static_residuals_of_the_inverse(pair):
    # The backward walk of V† meets the gates of V's forward walk in the
    # same order, so the two directions must agree bit for bit.
    c0, c1 = pair
    v = concat(c0, adjoint(c1))
    zero = np.diag([1.0, 0.0]).astype(complex)
    claims = [LocalProjection((t,), zero) for t in range(v.n_qubits)]
    weak = check_weak(c0, c1).residuals
    static = verify_static(adjoint(v), claims)
    assert [r.support for r in weak] == [s.support for s in static]
    assert [(r.l1, r.l2, r.linf) for r in weak] == [tuple(s.residual) for s in static]


@settings(max_examples=40, deadline=None)
@given(pairs(max_qubits=10, max_depth=3))
def test_weak_and_static_verdicts_match_oracle(pair):
    c0, c1 = pair
    psi0, psi1 = simulate(c0), simulate(c1)
    assert check_weak(c0, c1).equivalent == equal_up_to_phase(psi0, psi1)
    claims = compute_description(c1).projections
    for check, entry in zip(verify_static(c0, claims), claims):
        defect = apply_local(entry.matrix, psi0, list(entry.support), c0.n_qubits) - psi0
        assert check.holds == (np.max(np.abs(defect)) <= 1e-7)


@settings(max_examples=30, deadline=None)
@given(pairs(max_qubits=4, max_depth=3))
def test_strong_verdicts_match_oracle(pair):
    c0, c1 = pair
    dim = 1 << c0.n_qubits
    u0 = full_unitary(c0).reshape(-1) / np.sqrt(dim)
    u1 = full_unitary(c1).reshape(-1) / np.sqrt(dim)
    assert check_strong(c0, c1).equivalent == equal_up_to_phase(u0, u1)


def test_weak_capacity_error_names_qubit_and_layer(monkeypatch):
    monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
    c = random_circuit(8, 3, seed=1)
    with pytest.raises(CapacityError) as exc:
        check_weak(c, c)
    assert "qubit 2" in str(exc.value)
    assert "layer 1" in str(exc.value)
    assert exc.value.size == 4
    assert exc.value.cap == 3


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_rejected_by_the_walker(cap):
    # Even a circuit with no layers: every entry has width 1 > cap.
    for c in (Circuit(3), random_circuit(3, 2, seed=1)):
        with pytest.raises(DomainError, match="at least 1"):
            compute_description(c, cap=cap)
        with pytest.raises(DomainError, match="at least 1"):
            verify_static(c, compute_description(random_circuit(3, 1)), cap=cap)


def test_strong_check_validates_each_input_once(monkeypatch):
    calls = []
    original = equivalence.validate

    def counting(c, *args, **kwargs):
        calls.append(c)
        return original(c, *args, **kwargs)

    monkeypatch.setattr(equivalence, "validate", counting)
    c0, c1 = random_circuit(6, 2, seed=1), random_circuit(6, 2, seed=2)
    check_strong(c0, c1)
    assert calls == [c0, c1]
