"""Tests for the brute-force simulator and cross-check utilities."""

import numpy as np
import pytest

from shallowcheck import (
    CapacityError,
    Circuit,
    DomainError,
    Layer,
    ValidationError,
    compute_description,
    embed,
    equal_up_to_phase,
    full_unitary,
    named_gate,
    partial_trace,
    random_circuit,
    simulate,
    subspace_dim,
)
from shallowcheck.linalg import dagger


def bell_circuit():
    return Circuit(
        2, [Layer([named_gate("H", (0,))]), Layer([named_gate("CNOT", (0, 1))])]
    )


class TestSimulate:
    def test_bell_state(self):
        state = simulate(bell_circuit())
        assert np.allclose(state, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_x_flips_msb(self):
        c = Circuit(2, [Layer([named_gate("X", (0,))])])
        assert np.allclose(simulate(c), np.eye(4)[2])

    def test_custom_input_state(self):
        c = Circuit(1, [Layer([named_gate("X", (0,))])])
        out = simulate(c, input_state=np.array([0, 1]))
        assert np.allclose(out, [1, 0])

    def test_norm_preserved(self):
        state = simulate(random_circuit(6, 4, seed=5))
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_matches_full_unitary(self):
        for seed in (0, 1, 2):
            c = random_circuit(5, 3, seed=seed)
            via_state = simulate(c)
            via_matrix = full_unitary(c)[:, 0]
            assert np.allclose(via_state, via_matrix, atol=1e-12)

    def test_cnot_brickwork_both_paths(self):
        layers = [
            Layer([named_gate("CNOT", (0, 1)), named_gate("CNOT", (2, 3))]),
            Layer([named_gate("CNOT", (1, 2))]),
        ]
        c = Circuit(4, layers)
        assert np.allclose(simulate(c), full_unitary(c)[:, 0], atol=1e-14)

    def test_invalid_circuit_rejected(self):
        c = Circuit(1, [Layer([named_gate("X", (3,))])])
        with pytest.raises(ValidationError):
            simulate(c)

    def test_cap(self):
        with pytest.raises(CapacityError) as exc:
            simulate(Circuit(15))
        assert exc.value.size == 15
        assert exc.value.cap == 14


class TestFullUnitary:
    def test_identity_for_empty_circuit(self):
        assert np.array_equal(full_unitary(Circuit(2)), np.eye(4))

    def test_unsorted_gate_qubits(self):
        # CNOT written (1, 0) must act with control on qubit 1.
        c = Circuit(2, [Layer([named_gate("CNOT", (1, 0))])])
        u = full_unitary(c)
        v = u @ np.eye(4)[1]  # |01>: control set
        assert np.allclose(v, np.eye(4)[3])

    def test_layer_order(self):
        c = bell_circuit()
        h = embed(np.array([[1, 1], [1, -1]]) / np.sqrt(2), [0], [0, 1])
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        )
        assert np.allclose(full_unitary(c), cnot @ h)


class TestEqualUpToPhase:
    def test_identical(self):
        v = simulate(random_circuit(4, 2, seed=7))
        assert equal_up_to_phase(v, v)

    def test_phase_factor_ignored(self):
        v = simulate(random_circuit(4, 2, seed=7))
        assert equal_up_to_phase(v, np.exp(0.7j) * v)

    def test_distinct_states(self):
        a = simulate(random_circuit(4, 2, seed=1))
        b = simulate(random_circuit(4, 2, seed=2))
        assert not equal_up_to_phase(a, b)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError, match="normalized"):
            equal_up_to_phase(np.array([2.0, 0.0]), np.array([1.0, 0.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DomainError):
            equal_up_to_phase(np.array([1.0, 0.0]), np.ones(4) / 2)


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        state = simulate(bell_circuit())
        rho = np.outer(state, state.conj())
        for q in (0, 1):
            assert np.allclose(partial_trace(rho, [q], 2), np.eye(2) / 2)

    def test_keep_all_is_identity_map(self):
        state = simulate(random_circuit(3, 2, seed=3))
        rho = np.outer(state, state.conj())
        assert np.allclose(partial_trace(rho, [0, 1, 2], 3), rho)

    def test_product_state_factors(self):
        c = Circuit(2, [Layer([named_gate("H", (0,))])])
        state = simulate(c)
        rho = np.outer(state, state.conj())
        assert np.allclose(partial_trace(rho, [0], 2), np.full((2, 2), 0.5))
        assert np.allclose(partial_trace(rho, [1], 2), np.diag([1.0, 0.0]))

    def test_description_support_carries_the_state(self):
        # Tracing the output state down to one entry's support must give
        # a density matrix fixed by that entry's projection.
        c = random_circuit(5, 2, seed=9)
        state = simulate(c)
        rho = np.outer(state, state.conj())
        d = compute_description(c)
        p = d.projections[2]
        reduced = partial_trace(rho, list(p.support), 5)
        assert np.allclose(p.matrix @ reduced, reduced, atol=1e-10)

    def test_duplicate_keep_rejected(self):
        with pytest.raises(DomainError):
            partial_trace(np.eye(4) / 4, [0, 0], 2)

    def test_keep_must_be_integers(self):
        with pytest.raises(DomainError, match="must be an integer"):
            partial_trace(np.eye(4) / 4, [0.5], 2)


class TestSubspaceDim:
    def test_two_commuting_projections(self):
        a = np.diag([1.0, 1.0, 0.0, 0.0])
        b = np.diag([1.0, 0.0, 1.0, 0.0])
        assert subspace_dim([a, b]) == 1

    def test_full_space(self):
        assert subspace_dim([np.eye(4), np.eye(4)]) == 4

    def test_description_intersection_is_one_dimensional(self):
        c = random_circuit(4, 2, seed=12)
        d = compute_description(c)
        dense = [
            embed(p.matrix, list(p.support), list(range(4)))
            for p in d.projections
        ]
        assert subspace_dim(dense) == 1

    def test_matches_eigenvalue_cluster_count(self):
        # Independent route: eigenvalues of the product projector are
        # clustered at 0 and 1; the dimension is the size of the
        # 1-cluster.
        c = random_circuit(4, 2, seed=15)
        d = compute_description(c)
        dense = [
            embed(p.matrix, list(p.support), list(range(4)))
            for p in d.projections
        ]
        product = np.eye(16, dtype=complex)
        for m in dense:
            product = m @ product
        eigs = np.linalg.eigvalsh((product + dagger(product)) / 2)
        ones = int(np.sum(eigs > 0.5))
        assert subspace_dim(dense) == ones == 1

    def test_non_commuting_rejected(self):
        plus = np.full((2, 2), 0.5)
        with pytest.raises(DomainError, match="do not commute"):
            subspace_dim([np.diag([1.0, 0.0]), plus])

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            subspace_dim([])

    def test_cap(self):
        with pytest.raises(CapacityError):
            subspace_dim([np.eye(8)], cap=2)


class TestConjugationInvariants:
    def test_trace_preserved(self):
        rng = np.random.default_rng(31)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q, _ = np.linalg.qr(g)
        p = np.diag([1.0, 1.0, 1.0, 0, 0, 0, 0, 0]).astype(complex)
        assert np.trace(q @ p @ dagger(q)) == pytest.approx(3.0, abs=1e-12)
