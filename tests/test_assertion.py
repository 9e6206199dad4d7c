"""Tests for static assertion verification and runtime measurement chains."""

import json

import numpy as np
import pytest

from shallowcheck import (
    CapacityError,
    Circuit,
    Description,
    DomainError,
    Layer,
    LocalProjection,
    compute_description,
    named_gate,
    random_circuit,
    runtime_assert,
    simulate,
    verify_static,
)
from shallowcheck.linalg import apply_local
from support import equal_up_to_phase, joint_pass_probability, order_independence_check

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def zero_assertion(qubit):
    return LocalProjection((qubit,), P0)


class TestVerifyStatic:
    def test_identity_circuit_holds(self):
        checks = verify_static(Circuit(2), [zero_assertion(0), zero_assertion(1)])
        assert all(ch.holds for ch in checks)
        for ch in checks:
            assert ch.residual == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf")])
    def test_malformed_threshold_is_a_domain_error(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            verify_static(Circuit(1), [zero_assertion(0)], threshold=threshold)

    def test_zero_threshold_is_valid(self):
        (ch,) = verify_static(Circuit(1), [zero_assertion(0)], threshold=0)
        assert ch.holds

    def test_wrong_bit_fails_maximally(self):
        (ch,) = verify_static(Circuit(1), [LocalProjection((0,), P1)])
        assert not ch.holds
        assert ch.residual.linf == pytest.approx(1.0)

    def test_hadamard_output_is_not_a_basis_state(self):
        c = Circuit(1, [Layer([named_gate("H", (0,))])])
        (ch,) = verify_static(c, [zero_assertion(0)])
        assert not ch.holds
        assert ch.residual.linf == pytest.approx(0.5)

    def test_own_description_round_trip(self):
        for seed in (0, 1, 2):
            c = random_circuit(6, 3, seed=seed)
            checks = verify_static(c, compute_description(c))
            assert len(checks) == 6
            assert all(ch.holds for ch in checks)

    def test_accepts_plain_sequences(self):
        c = random_circuit(4, 2, seed=3)
        d = compute_description(c)
        by_description = verify_static(c, d)
        by_sequence = verify_static(c, list(d.projections))
        for a, b in zip(by_description, by_sequence):
            assert a.holds == b.holds
            assert a.support == b.support

    def test_complement_fails_exactly_that_entry(self):
        c = random_circuit(5, 2, seed=4)
        d = compute_description(c)
        k = 2
        entries = list(d.projections)
        p = entries[k]
        entries[k] = LocalProjection(
            p.support, np.eye(1 << len(p.support), dtype=complex) - p.matrix
        )
        checks = verify_static(c, entries)
        for ch in checks:
            assert ch.holds == (ch.index != k)
        assert checks[k].residual.linf == pytest.approx(1.0)

    def test_no_early_exit(self):
        c = Circuit(2)
        checks = verify_static(
            c, [LocalProjection((0,), P1), zero_assertion(1)]
        )
        assert [ch.holds for ch in checks] == [False, True]

    def test_agrees_with_forward_oracle(self):
        rng = np.random.default_rng(55)
        for seed in range(5):
            c = random_circuit(5, 2, seed=seed)
            psi = simulate(c)
            d = compute_description(c)
            entries = list(d.projections)
            # Scramble one entry at random so both verdicts occur.
            k = int(rng.integers(5))
            p = entries[k]
            entries[k] = LocalProjection(
                p.support, np.eye(1 << len(p.support), dtype=complex) - p.matrix
            )
            checks = verify_static(c, entries)
            for ch, entry in zip(checks, entries):
                w = apply_local(entry.matrix, psi, list(entry.support), 5)
                forward_holds = float(np.max(np.abs(w - psi))) <= 1e-7
                assert ch.holds == forward_holds

    def test_back_propagated_support_reported(self):
        c = random_circuit(8, 3, seed=1)
        (ch,) = verify_static(c, [zero_assertion(0)])
        assert ch.support == (0, 1, 2, 3)

    def test_capacity_error_names_assertion_and_layer(self):
        c = random_circuit(8, 3, seed=1)
        with pytest.raises(CapacityError) as exc:
            verify_static(c, [zero_assertion(0)], cap=3)
        assert "assertion 0" in str(exc.value)
        assert "layer 0" in str(exc.value)
        assert exc.value.size == 4

    def test_rejects_out_of_range_assertion(self):
        with pytest.raises(DomainError, match="out of range"):
            verify_static(Circuit(2), [zero_assertion(5)])

    def test_rejects_negative_qubit_assertion(self):
        # Once reported as holding, with support ``(-1,)``.
        with pytest.raises(DomainError, match="negative"):
            verify_static(random_circuit(4, 2, seed=1), [LocalProjection((-1,), P0)])

    def test_rejects_non_projection(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(DomainError, match="not a projection"):
            verify_static(Circuit(1), [LocalProjection((0,), h)])


class TestRuntimeAssert:
    def test_satisfied_assertions_always_pass(self):
        c = random_circuit(5, 2, seed=7)
        psi = simulate(c)
        d = compute_description(c)
        report = runtime_assert(psi, d, seed=1)
        assert report.result == "pass"
        assert report.abort_index is None
        assert report.outcome_log == (0,) * 5

    def test_pass_preserves_state(self):
        c = random_circuit(4, 2, seed=8)
        psi = simulate(c)
        report = runtime_assert(psi, compute_description(c), seed=2)
        assert equal_up_to_phase(report.state, psi, tol=1e-9)

    def test_orthogonal_state_aborts_immediately(self):
        report = runtime_assert(np.array([0.0, 1.0]), [zero_assertion(0)], seed=0)
        assert report.result == "abort"
        assert report.abort_index == 0
        assert report.outcome_log == (1,)
        assert np.allclose(report.state, [0.0, 1.0])

    def test_abort_truncates_log(self):
        state = np.zeros(4)
        state[3] = 1.0  # |11>
        entries = [zero_assertion(0), zero_assertion(1)]
        report = runtime_assert(state, entries, seed=0)
        assert report.outcome_log == (1,)
        assert report.abort_index == 0

    def test_born_statistics_on_plus_state(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        aborts = sum(
            runtime_assert(plus, [zero_assertion(0)], seed=s).result == "abort"
            for s in range(400)
        )
        assert 140 <= aborts <= 260

    def test_seeded_runs_reproducible(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        a = runtime_assert(plus, [zero_assertion(0)], seed=123)
        b = runtime_assert(plus, [zero_assertion(0)], seed=123)
        assert a.outcome_log == b.outcome_log
        assert np.array_equal(a.state, b.state)

    def test_non_commuting_tuple_rejected(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(DomainError, match="assertions 0 and 1"):
            runtime_assert(
                plus,
                [zero_assertion(0), LocalProjection((0,), PLUS)],
                seed=0,
            )

    @pytest.mark.parametrize("tol", [float("nan"), -1e-8, float("inf")])
    def test_malformed_commute_tol_is_a_domain_error(self, tol):
        # No deviation exceeds a NaN bound, so the guard would let the
        # non-commuting pair through and sample it anyway.
        entries = [LocalProjection((0,), PLUS), zero_assertion(0)]
        with pytest.raises(DomainError, match="commute_tol"):
            runtime_assert(np.array([1.0, 0.0]), entries, seed=0, commute_tol=tol)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(DomainError, match="normalized"):
            runtime_assert(np.array([1.0, 1.0]), [zero_assertion(0)])

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError, match="power of two"):
            runtime_assert(np.array([1.0, 0.0, 0.0]), [zero_assertion(0)])

    @pytest.mark.parametrize(
        "where, bad",
        [(slice(None), np.nan), (5, complex(0, np.nan)), (5, np.inf)],
        ids=["all-nan", "nan-imag", "inf"],
    )
    def test_rejects_non_finite_state(self, where, bad):
        # An all-NaN state has a NaN norm, which no bound rejects, and a
        # NaN pass probability, which ``min(1.0, nan)`` makes 1: it would
        # pass every assertion.
        state = np.zeros(16, dtype=complex)
        state[0] = 1.0
        state[where] = bad
        with pytest.raises(DomainError, match="non-finite"):
            runtime_assert(state, [zero_assertion(q) for q in range(4)], seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", True, np.random.default_rng(0)])
    def test_malformed_seed_is_a_domain_error(self, seed):
        with pytest.raises(DomainError, match="seed"):
            runtime_assert(np.array([1.0, 0.0]), [zero_assertion(0)], seed=seed)

    def test_noise_knob_triggers_aborts(self):
        # With certain noise every qubit suffers a Pauli; X and Y flips
        # knock the state out of the asserted subspace, so across seeds
        # aborts must show up (all-Z draws have probability (1/3)**3).
        state = np.zeros(8)
        state[0] = 1.0
        entries = [zero_assertion(q) for q in range(3)]
        results = {
            runtime_assert(state, entries, seed=s, noise=1.0).result
            for s in range(20)
        }
        assert "abort" in results

    def test_noise_zero_is_noiseless(self):
        state = np.zeros(4)
        state[0] = 1.0
        entries = [zero_assertion(0), zero_assertion(1)]
        for s in range(20):
            assert runtime_assert(state, entries, seed=s, noise=0.0).result == "pass"

    def test_noise_probability_validated(self):
        state = np.array([1.0, 0.0])
        with pytest.raises(DomainError, match="probability"):
            runtime_assert(state, [zero_assertion(0)], noise=1.5)

    def test_report_json_shape(self):
        report = runtime_assert(np.array([1.0, 0.0]), [zero_assertion(0)], seed=9)
        payload = report.to_json()
        assert payload == {
            "result": "pass",
            "abort_index": None,
            "outcome_log": [0],
            "seed": 9,
        }

    def test_numpy_integer_seed_is_stored_as_int(self):
        report = runtime_assert(np.array([1.0, 0.0]), [zero_assertion(0)], seed=np.int64(3))
        assert type(report.seed) is int
        assert json.loads(json.dumps(report.to_json()))["seed"] == 3


class TestOrderIndependence:
    def test_basis_state_exact_zero(self):
        state = np.zeros(4)
        state[0] = 1.0
        dev = order_independence_check(
            state, [zero_assertion(0), zero_assertion(1)], trials=10, seed=0
        )
        assert dev == 0.0

    def test_description_tuples_are_order_independent(self):
        c = random_circuit(5, 2, seed=9)
        psi = simulate(c)
        d = compute_description(c)
        dev = order_independence_check(psi, d, trials=15, seed=1)
        assert dev <= 1e-10

    def test_non_commuting_tuple_rejected(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(DomainError, match="do not commute"):
            order_independence_check(
                plus,
                [zero_assertion(0), LocalProjection((0,), PLUS)],
                trials=5,
            )

    @pytest.mark.parametrize("tol", [float("nan"), -1e-8, float("inf")])
    def test_malformed_commute_tol_is_a_domain_error(self, tol):
        # No deviation exceeds a NaN bound, so the guard would let the
        # non-commuting pair through and report its order dependence.
        entries = [LocalProjection((0,), PLUS), zero_assertion(0)]
        with pytest.raises(DomainError, match="commute_tol"):
            order_independence_check(
                np.array([1.0, 0.0]), entries, trials=5, seed=0, commute_tol=tol
            )

    def test_non_commuting_probabilities_depend_on_order(self):
        # Bypassing the guard shows why it exists: measuring |0><0| then
        # |+><+| passes with probability 1/2, the reverse order with 1/4.
        entries = (zero_assertion(0), LocalProjection((0,), PLUS))
        state = np.array([1.0, 0.0], dtype=complex)
        forward = joint_pass_probability(state, entries, [0, 1], 1)
        backward = joint_pass_probability(state, entries, [1, 0], 1)
        assert forward == pytest.approx(0.5)
        assert backward == pytest.approx(0.25)
        assert abs(forward - backward) > 1e-3

    def test_trials_validated(self):
        with pytest.raises(DomainError):
            order_independence_check(
                np.array([1.0, 0.0]), [zero_assertion(0)], trials=-1
            )


class TestEntryHandling:
    def test_description_and_sequence_equivalent(self):
        c = random_circuit(4, 1, seed=10)
        psi = simulate(c)
        d = compute_description(c)
        a = runtime_assert(psi, d, seed=3)
        b = runtime_assert(psi, tuple(d.projections), seed=3)
        assert a.outcome_log == b.outcome_log

    def test_non_projection_entries_rejected(self):
        state = np.array([1.0, 0.0])
        with pytest.raises(DomainError, match="LocalProjection"):
            runtime_assert(state, [P0], seed=0)

    def test_description_entries_are_checked_as_a_sequence_is(self):
        # A bad entry gets a DomainError, not an AttributeError: from the
        # checks in a plain list, and from the constructor in a
        # Description, which cannot be built with one.
        c = random_circuit(3, 2, seed=1)
        state = simulate(c)
        with pytest.raises(DomainError) as static:
            verify_static(c, ["x"])
        with pytest.raises(DomainError) as runtime:
            runtime_assert(state, ["x"], seed=0)
        for exc in (static, runtime):
            assert str(exc.value) == "assertion 0 must be a LocalProjection, got str"
        with pytest.raises(DomainError) as built:
            Description(3, ["x"])
        assert str(built.value) == "projection 0 must be a LocalProjection, got str"

    def test_empty_tuple_passes_vacuously(self):
        report = runtime_assert(np.array([1.0, 0.0]), [], seed=0)
        assert report.result == "pass"
        assert report.outcome_log == ()
