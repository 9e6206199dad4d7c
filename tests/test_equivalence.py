"""Tests for weak and strong equivalence checking."""

import numpy as np
import pytest

from shallowcheck import (
    CapacityError,
    Circuit,
    DomainError,
    Gate,
    Layer,
    ValidationError,
    check_strong,
    check_weak,
    named_gate,
    random_circuit,
    simulate,
)
from shallowcheck.config import SUPPORT_CAP_ENV
from support import equal_up_to_phase, full_unitary, micro_fixtures


def s_and_t_circuits():
    s = Circuit(1, [Layer([named_gate("S", (0,))])])
    t = Circuit(1, [Layer([named_gate("T", (0,))])])
    return s, t


def rotation_circuit(angle):
    """Single-qubit X rotation; distance from identity scales with angle."""
    m = np.array(
        [
            [np.cos(angle / 2), -1j * np.sin(angle / 2)],
            [-1j * np.sin(angle / 2), np.cos(angle / 2)],
        ],
        dtype=complex,
    )
    return Circuit(1, [Layer([Gate((0,), m)])])


class TestCheckWeak:
    def test_self_equivalence(self):
        for seed in (0, 1, 2):
            c = random_circuit(6, 3, seed=seed)
            r = check_weak(c, c)
            assert r.verdict == "equivalent"
            assert r.max_linf <= 1e-10

    def test_identity_vs_bit_flip(self):
        identity_c = Circuit(1, [Layer([named_gate("I", (0,))])])
        flip = Circuit(1, [Layer([named_gate("X", (0,))])])
        r = check_weak(identity_c, flip)
        assert r.verdict == "inequivalent"
        assert r.max_linf >= 0.9

    def test_symmetric_verdict(self):
        a = random_circuit(5, 2, seed=3)
        b = random_circuit(5, 2, seed=4)
        assert check_weak(a, b).verdict == check_weak(b, a).verdict == "inequivalent"

    def test_global_phase_invisible(self):
        c = random_circuit(3, 2, seed=5)
        g = c.layers[0].gates[0]
        phased_layers = (
            Layer((Gate(g.qubits, np.exp(0.3j) * g.matrix),) + c.layers[0].gates[1:]),
        ) + c.layers[1:]
        r = check_weak(c, Circuit(3, phased_layers))
        assert r.verdict == "equivalent"
        assert r.max_linf <= 1e-10

    def test_agrees_with_oracle_on_random_pairs(self):
        for seed in range(5):
            a = random_circuit(4, 2, seed=seed)
            b = random_circuit(4, 2, seed=seed + 100)
            expect = equal_up_to_phase(simulate(a), simulate(b))
            assert check_weak(a, b).equivalent == expect

    def test_width_mismatch(self):
        with pytest.raises(DomainError):
            check_weak(Circuit(2), Circuit(3))

    def test_invalid_first_circuit_named(self):
        bad = Circuit(2, [Layer([named_gate("X", (5,))])])
        with pytest.raises(ValidationError, match="first circuit"):
            check_weak(bad, Circuit(2))

    def test_invalid_second_circuit_named(self):
        bad = Circuit(2, [Layer([named_gate("X", (5,))])])
        with pytest.raises(ValidationError, match="second circuit"):
            check_weak(Circuit(2), bad)

    def test_capacity_error_propagates(self, monkeypatch):
        monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
        a = random_circuit(8, 3, seed=0)
        b = random_circuit(8, 3, seed=1)
        with pytest.raises(CapacityError):
            check_weak(a, b)


class TestCheckStrong:
    def test_self_equivalence(self):
        c = random_circuit(4, 2, seed=6)
        r = check_strong(c, c)
        assert r.verdict == "equivalent"
        assert r.max_linf <= 1e-10

    def test_strong_implies_weak(self):
        fixtures = micro_fixtures(seed=2)
        for name, c0, c1, expected in fixtures:
            if c0.n_qubits > 4:
                continue
            if check_strong(c0, c1).equivalent:
                assert check_weak(c0, c1).equivalent, name

    def test_s_vs_t_separation(self):
        s, t = s_and_t_circuits()
        weak = check_weak(s, t)
        assert weak.verdict == "equivalent"
        assert weak.max_linf == 0.0
        strong = check_strong(s, t)
        assert strong.verdict == "inequivalent"
        assert strong.max_linf > 1e-3

    def test_cz_decomposition_identity(self):
        h1 = Layer([named_gate("H", (1,))])
        via_cnot = Circuit(2, [h1, Layer([named_gate("CNOT", (0, 1))]), h1])
        cz = Circuit(2, [Layer([named_gate("CZ", (0, 1))])])
        assert check_strong(via_cnot, cz).verdict == "equivalent"

    def test_mode_labels_and_timing(self):
        c = random_circuit(3, 1, seed=7)
        weak = check_weak(c, c)
        strong = check_strong(c, c)
        assert weak.mode == "weak"
        assert strong.mode == "strong"
        assert weak.seconds >= 0.0
        assert strong.seconds >= 0.0


class TestMicroFixtures:
    def test_fixture_count_and_shapes(self):
        fixtures = micro_fixtures(seed=0)
        assert len(fixtures) == 8
        names = [f[0] for f in fixtures]
        assert len(set(names)) == 8
        for name, c0, c1, expected in fixtures:
            assert expected in ("equivalent", "inequivalent")
            assert c0.n_qubits == c1.n_qubits

    def test_fixtures_reproducible_per_seed(self):
        a = micro_fixtures(seed=5)
        b = micro_fixtures(seed=5)
        for (_, c0a, _, _), (_, c0b, _, _) in zip(a, b):
            for la, lb in zip(c0a.layers, c0b.layers):
                for ga, gb in zip(la.gates, lb.gates):
                    assert np.array_equal(ga.matrix, gb.matrix)

    def test_small_fixture_verdicts_under_strong_check(self):
        for name, c0, c1, expected in micro_fixtures(seed=1):
            if c0.n_qubits > 4:
                continue
            assert check_strong(c0, c1).verdict == expected, name

    def test_small_fixture_verdicts_against_oracle(self):
        for name, c0, c1, expected in micro_fixtures(seed=3):
            if c0.n_qubits > 4:
                continue
            u = full_unitary(c0)
            v = full_unitary(c1)
            overlap = abs(np.trace(u.conj().T @ v)) / u.shape[0]
            oracle = "equivalent" if overlap >= 1 - 1e-9 else "inequivalent"
            assert oracle == expected, name

    def test_perturbed_pair_passes_weak(self):
        # The perturbed pair differs only on inputs outside the all-zeros
        # orbit, which is exactly the weak/strong gap the fixture probes.
        fixtures = {f[0]: f for f in micro_fixtures(seed=4)}
        _, c0, c1, _ = fixtures["ccu-diagonal-perturbed"]
        assert check_weak(c0, c1).verdict == "equivalent"
        assert check_strong(c0, c1).verdict == "inequivalent"


class TestReport:
    def test_json_keys_exact(self):
        c = random_circuit(3, 1, seed=9)
        payload = check_weak(c, c).to_json()
        assert list(payload) == [
            "mode",
            "verdict",
            "threshold",
            "max_linf",
            "residuals",
            "max_support",
            "seconds",
            "warning",
        ]
        for entry in payload["residuals"]:
            assert list(entry) == ["support", "l1", "l2", "linf"]

    def test_residual_count_matches_width(self):
        c = random_circuit(5, 2, seed=10)
        r = check_weak(c, c)
        assert len(r.residuals) == 5

    def test_max_fields_consistent(self):
        a = random_circuit(5, 2, seed=11)
        b = random_circuit(5, 2, seed=12)
        r = check_weak(a, b)
        assert r.max_linf == max(e.linf for e in r.residuals)
        assert r.max_support == max(len(e.support) for e in r.residuals)

    def test_warning_inside_equivalent_margin(self):
        # Residual about 5e-8 sits within a decade of the 1e-7 threshold.
        r = check_weak(rotation_circuit(1e-7), Circuit(1))
        assert r.verdict == "equivalent"
        assert r.warning

    def test_warning_inside_inequivalent_margin(self):
        r = check_weak(rotation_circuit(1e-6), Circuit(1))
        assert r.verdict == "inequivalent"
        assert r.warning

    def test_no_warning_far_from_threshold(self):
        c = random_circuit(4, 2, seed=13)
        assert not check_weak(c, c).warning

    def test_threshold_override(self):
        r = check_weak(rotation_circuit(1e-4), Circuit(1), threshold=1e-3)
        assert r.verdict == "equivalent"
        assert r.threshold == 1e-3

    @pytest.mark.parametrize("check", [check_weak, check_strong])
    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf"), -1e-300])
    def test_malformed_threshold_is_a_domain_error(self, check, threshold):
        # Not a verdict: NaN and -1 would call a circuit inequivalent to
        # itself, and infinity would pass every pair.
        c = random_circuit(4, 2, seed=1)
        with pytest.raises(DomainError, match="threshold"):
            check(c, c, threshold=threshold)

    @pytest.mark.parametrize("check", [check_weak, check_strong])
    def test_zero_threshold_is_valid(self, check):
        c = random_circuit(4, 2, seed=1)
        r = check(c, c, threshold=0)
        assert r.threshold == 0.0
        assert r.equivalent == (r.max_linf == 0.0)
