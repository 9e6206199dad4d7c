"""Tests for the circuit IR: construction, validation, composition, JSON."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowcheck import (
    NAMED_GATES,
    Circuit,
    DomainError,
    Gate,
    Layer,
    SchemaError,
    adjoint,
    check_strong,
    choi_extend,
    circuit_from_json,
    circuit_to_json,
    concat,
    haar_unitary,
    named_gate,
    random_circuit,
    simulate,
    validate,
)
from shallowcheck import circuit
from shallowcheck.config import DEFAULT_K_MAX, STRUCTURAL_TOL
from support import gate_in_sorted_order


def bell_layer_circuit():
    return Circuit(2, [Layer([named_gate("H", (0,))]), Layer([named_gate("CNOT", (0, 1))])])


class TestGate:
    def test_requires_qubits(self):
        with pytest.raises(DomainError):
            Gate((), np.eye(1))

    def test_dimension_must_match_arity(self):
        with pytest.raises(DomainError):
            Gate((0, 1), np.eye(2))

    def test_matrix_is_defensive_readonly_copy(self):
        m = np.eye(2, dtype=complex)
        g = Gate((0,), m)
        m[0, 0] = 5.0
        assert g.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            g.matrix[0, 0] = 7.0

    def test_readonly_view_of_writable_array_is_copied(self):
        m = np.eye(4, dtype=complex)
        view = m[:2, :2]
        view.setflags(write=False)
        g = Gate((0,), view)
        assert g.matrix is not view
        m[0, 0] = 5.0
        assert g.matrix[0, 0] == 1.0

    def test_frozen_complex_matrix_is_kept(self):
        m = np.eye(2, dtype=complex)
        m.setflags(write=False)
        assert Gate((0,), m).matrix is m
        real = np.eye(2)
        real.setflags(write=False)
        g = Gate((0,), real)
        assert g.matrix.dtype == complex and not g.matrix.flags.writeable

    def test_arity(self):
        assert named_gate("SWAP", (3, 1)).arity == 2

    @pytest.mark.parametrize("bad", [1.7, 1.0, np.float64(1.0), True, "1", None])
    def test_qubit_index_must_be_an_integer(self, bad):
        with pytest.raises(DomainError, match="qubit index must be an integer"):
            Gate((0, bad), np.eye(4))

    def test_numpy_integer_qubits_become_ints(self):
        g = Gate((np.int64(0), np.uint8(2)), np.eye(4))
        assert g.qubits == (0, 2)
        assert all(type(q) is int for q in g.qubits)


class TestNamedGates:
    def test_all_named_gates_are_unitary(self):
        for name, m in NAMED_GATES.items():
            assert np.allclose(m @ m.conj().T, np.eye(len(m)), rtol=0, atol=1e-9), name

    def test_cs_phase(self):
        assert NAMED_GATES["CS"][3, 3] == 1j

    def test_t_squares_to_s(self):
        t = NAMED_GATES["T"]
        assert np.allclose(t @ t, NAMED_GATES["S"])

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown gate name"):
            named_gate("Q", (0,))

    def test_arity_mismatch(self):
        with pytest.raises(DomainError, match="acts on 2 qubit"):
            named_gate("CNOT", (0,))

    def test_pair_gate_prepares_bell_state(self):
        (pair,) = choi_extend(Circuit(1)).layers[0].gates
        v = pair.matrix @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestCircuit:
    @pytest.mark.parametrize("bad", [3.9, 3.0, np.float32(3.0), False, "3"])
    def test_qubit_count_must_be_an_integer(self, bad):
        with pytest.raises(DomainError, match="n_qubits must be an integer"):
            Circuit(bad)

    def test_numpy_integer_qubit_count_becomes_an_int(self):
        c = Circuit(np.int32(3))
        assert c.n_qubits == 3 and type(c.n_qubits) is int

    def test_layer_holds_gates_only(self):
        # Before, validate and check_weak raised AttributeError on these.
        with pytest.raises(DomainError, match="a layer holds gates only"):
            Layer([(0, 1)])
        with pytest.raises(DomainError, match="a layer holds gates only"):
            Layer([named_gate("X", (0,)), "CNOT"])

    def test_circuit_holds_layers_only(self):
        with pytest.raises(DomainError, match="a circuit holds layers only"):
            Circuit(2, [[named_gate("X", (0,))]])
        with pytest.raises(DomainError, match="a circuit holds layers only"):
            Circuit(2, [named_gate("X", (0,))])


class TestValidate:
    def test_valid_circuit(self):
        assert validate(bell_layer_circuit()) == []

    def test_bad_qubit_count(self):
        assert any("n_qubits" in v for v in validate(Circuit(0)))

    def test_duplicate_qubits_in_gate(self):
        c = Circuit(2, [Layer([Gate((0, 0), np.eye(4))])])
        assert any("duplicate qubit" in v for v in validate(c))

    def test_out_of_range_qubit(self):
        c = Circuit(2, [Layer([named_gate("X", (5,))])])
        assert any("out of range" in v for v in validate(c))

    def test_arity_limit(self):
        c = Circuit(4, [Layer([Gate((0, 1, 2, 3), np.eye(16))])])
        assert any("arity 4 exceeds" in v for v in validate(c))

    def test_non_unitary_matrix(self):
        c = Circuit(1, [Layer([Gate((0,), [[1, 0], [0, 2]])])])
        msgs = validate(c)
        assert any("not unitary" in v for v in msgs)

    def test_non_finite_matrix(self):
        c = Circuit(1, [Layer([Gate((0,), [[np.inf, 0], [0, 1]])])])
        assert any("non-finite" in v for v in validate(c))

    def test_violations_listed_per_gate_in_order(self, recwarn):
        # Gates of three dimensions, checked in one stack per dimension;
        # a non-finite gate gets no unitarity line and raises no warning.
        nan = [[np.nan, 0], [0, 1]]
        c = Circuit(3, [
            Layer([Gate((0, 1), 2 * np.eye(4)), Gate((2,), nan)]),
            Layer([Gate((0,), [[1, 0], [0, 2]]), named_gate("CNOT", (1, 2))]),
            Layer([Gate((0, 1, 2), np.eye(8)), Gate((0,), nan)]),
        ])
        assert validate(c) == [
            "layer 0, gate 0: matrix is not unitary (max deviation 3.000e+00)",
            "layer 0, gate 1: matrix contains non-finite entries",
            "layer 1, gate 0: matrix is not unitary (max deviation 3.000e+00)",
            "layer 2, gate 1: matrix contains non-finite entries",
            "layer 2: gates 0 and 1 overlap on qubit(s) [0]",
        ]
        assert len(recwarn) == 0

    def test_overlapping_gates_in_layer(self):
        c = Circuit(3, [Layer([named_gate("CNOT", (0, 1)), named_gate("CNOT", (1, 2))])])
        msgs = validate(c)
        assert any("gates 0 and 1 overlap on qubit(s) [1]" in v for v in msgs)

    def test_multiple_violations_all_reported(self):
        c = Circuit(
            2,
            [
                Layer([Gate((0,), [[1, 0], [0, 2]])]),
                Layer([named_gate("X", (9,))]),
            ],
        )
        msgs = validate(c)
        assert len(msgs) == 2
        assert any("layer 0" in v for v in msgs)
        assert any("layer 1" in v for v in msgs)


class TestComposition:
    def test_adjoint_involution(self):
        c = random_circuit(4, 3, seed=5)
        cc = adjoint(adjoint(c))
        assert cc.depth == c.depth
        for la, lb in zip(c.layers, cc.layers):
            for ga, gb in zip(la.gates, lb.gates):
                assert ga.qubits == gb.qubits
                assert np.allclose(ga.matrix, gb.matrix)

    def test_adjoint_inverts_circuit(self):
        c = random_circuit(4, 2, seed=6)
        state = simulate(concat(c, adjoint(c)))
        expect = np.zeros(16)
        expect[0] = 1.0
        assert np.allclose(state, expect, atol=1e-12)

    def test_adjoint_keeps_its_frozen_daggers_uncopied(self):
        c = random_circuit(4, 2, seed=7)
        for la, lb in zip(c.layers, reversed(adjoint(c).layers)):
            for ga, gb in zip(la.gates, lb.gates):
                assert np.array_equal(gb.matrix, np.conj(ga.matrix).T)
                assert not gb.matrix.flags.writeable
                # A view of the frozen conjugate, not a copy of it.
                assert gb.matrix.base is not None
                assert not gb.matrix.base.flags.writeable
                assert not np.shares_memory(gb.matrix, ga.matrix)

    def test_adjoint_keeps_hermitian_names_only(self):
        c = Circuit(1, [Layer([named_gate("S", (0,))]), Layer([named_gate("H", (0,))])])
        inv = adjoint(c)
        assert inv.layers[0].gates[0].name == "H"
        assert inv.layers[1].gates[0].name is None

    def test_concat_orders_layers(self):
        a = Circuit(1, [Layer([named_gate("X", (0,))])])
        b = Circuit(1, [Layer([named_gate("H", (0,))])])
        ab = concat(a, b)
        assert ab.depth == 2
        assert ab.layers[0].gates[0].name == "X"
        assert ab.layers[1].gates[0].name == "H"

    def test_concat_rejects_width_mismatch(self):
        with pytest.raises(DomainError):
            concat(Circuit(1), Circuit(2))


def _validate_gate_by_gate(c):
    """The rules of ``validate``, checked one gate at a time."""
    out = []
    if c.n_qubits < 1:
        out.append(f"circuit: n_qubits must be at least 1, got {c.n_qubits}")
    for i, layer in enumerate(c.layers):
        claimed = {}
        for j, g in enumerate(layer.gates):
            if len(set(g.qubits)) != len(g.qubits):
                out.append(f"layer {i}, gate {j}: duplicate qubit indices {g.qubits}")
            for q in g.qubits:
                if not 0 <= q < c.n_qubits:
                    out.append(
                        f"layer {i}, gate {j}: qubit {q} out of range for "
                        f"{c.n_qubits} qubit(s)"
                    )
            if g.arity > DEFAULT_K_MAX:
                out.append(
                    f"layer {i}, gate {j}: arity {g.arity} exceeds the "
                    f"gate-arity limit {DEFAULT_K_MAX}"
                )
            u = g.matrix
            if not np.isfinite(u).all():
                out.append(f"layer {i}, gate {j}: matrix contains non-finite entries")
            else:
                dev = np.abs(u @ u.conj().T - np.eye(len(u))).max()
                if dev > STRUCTURAL_TOL:
                    out.append(
                        f"layer {i}, gate {j}: matrix is not unitary "
                        f"(max deviation {dev:.3e})"
                    )
            overlap = sorted(q for q in g.qubits if q in claimed)
            if overlap:
                out.append(
                    f"layer {i}: gates {claimed[overlap[0]]} and {j} overlap "
                    f"on qubit(s) {overlap}"
                )
            for q in g.qubits:
                claimed.setdefault(q, j)
    return out


def _matrix(kind, arity):
    dim = 1 << arity
    if kind == "unitary":
        return haar_unitary(arity, seed=arity)
    if kind == "scaled":
        return 2 * np.eye(dim)
    m = np.eye(dim, dtype=complex)
    m[0, -1] = np.nan
    return m


_malformed_gates = st.builds(
    lambda qubits, kind: Gate(tuple(qubits), _matrix(kind, len(qubits))),
    st.lists(st.integers(-2, 6), min_size=1, max_size=4),
    st.sampled_from(["unitary", "unitary", "scaled", "nan"]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-1, 6),
    st.lists(st.lists(_malformed_gates, max_size=4), max_size=4),
)
def test_validate_agrees_with_the_gate_by_gate_rules(n, layers):
    # Duplicate, out-of-range and negative qubits, overlapping gates,
    # arity 4, NaN and non-unitary matrices and n_qubits < 1, as well
    # as valid layers, which validate checks at once.
    c = Circuit(n, [Layer(gates) for gates in layers])
    assert validate(c) == _validate_gate_by_gate(c)


class TestChoiExtend:
    def test_shape(self):
        c = random_circuit(4, 3, seed=1)
        e = choi_extend(c)
        assert e.n_qubits == 8
        assert e.depth == 4
        assert len(e.layers[0].gates) == 4
        assert e.layers[0].gates[2].qubits == (2, 6)

    def test_layers_shifted(self):
        c = random_circuit(4, 2, seed=2)
        e = choi_extend(c)
        for orig_layer, ext_layer in zip(c.layers, e.layers[1:]):
            for og, eg in zip(orig_layer.gates, ext_layer.gates):
                assert eg.qubits == tuple(q + 4 for q in og.qubits)
                assert np.array_equal(eg.matrix, og.matrix)

    def test_gate_matrices_are_shared_not_copied(self):
        c = random_circuit(4, 2, seed=3)
        e = choi_extend(c)
        for orig_layer, ext_layer in zip(c.layers, e.layers[1:]):
            for og, eg in zip(orig_layer.gates, ext_layer.gates):
                assert eg.matrix is og.matrix
        # One pair gate matrix, shared by every pair and every extension.
        pair = choi_extend(Circuit(1)).layers[0].gates[0].matrix
        assert all(g.matrix is pair for g in e.layers[0].gates)

    def test_empty_circuit_gives_maximally_entangled_state(self):
        # With no gates, the extension outputs a uniform superposition of
        # |b>|b> over all basis strings b.
        e = choi_extend(Circuit(2))
        state = simulate(e)
        expect = np.zeros(16)
        for b in range(4):
            expect[b * 4 + b] = 0.5
        assert np.allclose(state, expect)

    def test_strong_check_builds_each_gate_once(self, monkeypatch):
        # Each gate of the two extensions and of the inverse of the
        # second is derived from a checked gate once, never checked again.
        c0, c1 = random_circuit(6, 3, seed=1), random_circuit(6, 2, seed=2)
        built = []
        post_init = Gate.__post_init__
        derived = circuit._derived_gate

        def count(self):
            built.append(self)
            post_init(self)

        def count_derived(*args):
            built.append(args)
            return derived(*args)

        monkeypatch.setattr(Gate, "__post_init__", count)
        monkeypatch.setattr(circuit, "_derived_gate", count_derived)
        check_strong(c0, c1)
        sizes = [6 + sum(len(layer.gates) for layer in c.layers) for c in (c0, c1)]
        assert len(built) == sizes[0] + 2 * sizes[1]
        assert all(type(b) is tuple for b in built)

    def test_encodes_the_unitary(self):
        # The extension's output amplitudes are the unitary's entries up
        # to layout, so distinct unitaries must give distinct outputs.
        c1 = Circuit(1, [Layer([named_gate("S", (0,))])])
        c2 = Circuit(1, [Layer([named_gate("T", (0,))])])
        s1 = simulate(choi_extend(c1))
        s2 = simulate(choi_extend(c2))
        assert not np.allclose(s1, s2)


class TestHaarUnitary:
    def test_deterministic_per_seed(self):
        assert np.array_equal(haar_unitary(2, seed=42), haar_unitary(2, seed=42))

    def test_unitary(self):
        u = haar_unitary(3, seed=0)
        assert np.allclose(u @ u.conj().T, np.eye(8), rtol=0, atol=1e-10)

    def test_entry_moment_matches_haar(self):
        # E[|U_00|^2] = 1/dim for Haar measure; dim=2 gives 0.5.
        rng = np.random.default_rng(77)
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            total += abs(haar_unitary(1, rng)[0, 0]) ** 2
        assert total / trials == pytest.approx(0.5, abs=0.02)

    def test_rejects_bad_size(self):
        with pytest.raises(DomainError):
            haar_unitary(0)

    def test_cap(self, monkeypatch):
        from shallowcheck import CapacityError
        from shallowcheck.config import SUPPORT_CAP_ENV

        monkeypatch.setenv(SUPPORT_CAP_ENV, "4")
        with pytest.raises(CapacityError):
            haar_unitary(5)


class TestRandomCircuit:
    def test_brickwork_pattern(self):
        c = random_circuit(7, 4, seed=3)
        assert [g.qubits for g in c.layers[0].gates] == [(0, 1), (2, 3), (4, 5)]
        assert [g.qubits for g in c.layers[1].gates] == [(1, 2), (3, 4), (5, 6)]
        assert [g.qubits for g in c.layers[2].gates] == [(0, 1), (2, 3), (4, 5)]
        assert [g.qubits for g in c.layers[3].gates] == [(1, 2), (3, 4), (5, 6)]

    def test_depth_zero(self):
        c = random_circuit(4, 0, seed=0)
        assert c.depth == 0

    def test_deterministic(self):
        a = random_circuit(6, 3, seed=9)
        b = random_circuit(6, 3, seed=9)
        for la, lb in zip(a.layers, b.layers):
            for ga, gb in zip(la.gates, lb.gates):
                assert np.array_equal(ga.matrix, gb.matrix)

    def test_seeds_differ(self):
        a = random_circuit(4, 1, seed=1)
        b = random_circuit(4, 1, seed=2)
        assert not np.allclose(a.layers[0].gates[0].matrix, b.layers[0].gates[0].matrix)

    def test_always_valid(self):
        assert validate(random_circuit(9, 5, seed=13)) == []

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            random_circuit(1, 3)
        with pytest.raises(DomainError):
            random_circuit(4, -1)
        with pytest.raises(DomainError):
            random_circuit(4, 2, geometry="2d-grid")


class TestGateInSortedOrder:
    def test_sorted_gate_unchanged(self):
        g = named_gate("CNOT", (0, 1))
        assert gate_in_sorted_order(g) is g

    def test_reversed_cnot(self):
        # CNOT with control 1, target 0 equals the axis-permuted matrix.
        g = named_gate("CNOT", (1, 0))
        s = gate_in_sorted_order(g)
        assert s.qubits == (0, 1)
        expect = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
            dtype=complex,
        )
        assert np.allclose(s.matrix, expect)

    def test_same_operator_on_states(self):
        from shallowcheck.linalg import apply_local

        rng = np.random.default_rng(21)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        g = Gate((2, 0), haar_unitary(2, seed=50))
        s = gate_in_sorted_order(g)
        a = apply_local(g.matrix, v, list(g.qubits), 3)
        b = apply_local(s.matrix, v, list(s.qubits), 3)
        assert np.allclose(a, b)


class TestJson:
    def test_round_trip_named_and_matrix_gates(self):
        c = Circuit(
            3,
            [
                Layer([named_gate("H", (0,)), named_gate("S", (2,))]),
                Layer([Gate((0, 1), haar_unitary(2, seed=4))]),
            ],
        )
        obj = circuit_to_json(c)
        assert obj["layers"][0][0] == {"qubits": [0], "name": "H"}
        assert "matrix" in obj["layers"][1][0]
        back = circuit_from_json(obj)
        assert back.n_qubits == 3
        for la, lb in zip(c.layers, back.layers):
            for ga, gb in zip(la.gates, lb.gates):
                assert ga.qubits == gb.qubits
                assert np.allclose(ga.matrix, gb.matrix)

    def test_round_trip_is_exact_for_named_gates(self):
        c = bell_layer_circuit()
        back = circuit_from_json(circuit_to_json(c))
        for la, lb in zip(c.layers, back.layers):
            for ga, gb in zip(la.gates, lb.gates):
                assert np.array_equal(ga.matrix, gb.matrix)

    def test_unknown_top_level_field(self):
        obj = circuit_to_json(bell_layer_circuit())
        obj["version"] = 2
        with pytest.raises(SchemaError, match="unknown field"):
            circuit_from_json(obj)

    def test_missing_fields(self):
        with pytest.raises(SchemaError, match="missing required field"):
            circuit_from_json({"n_qubits": 2})
        with pytest.raises(SchemaError, match="missing required field"):
            circuit_from_json({"layers": []})

    def test_unknown_gate_field(self):
        obj = {"n_qubits": 1, "layers": [[{"qubits": [0], "name": "X", "label": "a"}]]}
        with pytest.raises(SchemaError, match=r"layers\[0\]\[0\]"):
            circuit_from_json(obj)

    def test_name_and_matrix_both_present(self):
        obj = {
            "n_qubits": 1,
            "layers": [[{"qubits": [0], "name": "X", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]],
        }
        with pytest.raises(SchemaError, match="exactly one"):
            circuit_from_json(obj)

    def test_neither_name_nor_matrix(self):
        obj = {"n_qubits": 1, "layers": [[{"qubits": [0]}]]}
        with pytest.raises(SchemaError, match="exactly one"):
            circuit_from_json(obj)

    def test_unknown_gate_name(self):
        obj = {"n_qubits": 1, "layers": [[{"qubits": [0], "name": "FOO"}]]}
        with pytest.raises(SchemaError, match="known names"):
            circuit_from_json(obj)

    def test_matrix_dimension_mismatch(self):
        obj = {
            "n_qubits": 2,
            "layers": [[{"qubits": [0, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]],
        }
        with pytest.raises(SchemaError, match="does not match 2 qubit"):
            circuit_from_json(obj)

    def test_malformed_matrix_entries(self):
        obj = {"n_qubits": 1, "layers": [[{"qubits": [0], "matrix": [[[1, 0], [0]], [[0, 0], [1, 0]]]}]]}
        with pytest.raises(SchemaError, match=r"\[re, im\] pair"):
            circuit_from_json(obj)

    def test_non_finite_matrix_entry(self):
        nan = float("nan")
        obj = {
            "n_qubits": 1,
            "layers": [[{"qubits": [0], "matrix": [[[nan, 0], [0, 0]], [[0, 0], [1, 0]]]}]],
        }
        with pytest.raises(SchemaError, match="finite"):
            circuit_from_json(obj)

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(SchemaError, match="expected an integer"):
            circuit_from_json({"n_qubits": True, "layers": []})

    def test_floats_are_not_integers(self):
        with pytest.raises(SchemaError, match="n_qubits: expected an integer"):
            circuit_from_json({"n_qubits": 2.0, "layers": []})
        obj = {"n_qubits": 2, "layers": [[{"qubits": [0, 1.0], "name": "CZ"}]]}
        with pytest.raises(SchemaError, match=r"qubits\[1\]: expected an integer"):
            circuit_from_json(obj)

    def test_empty_qubits_rejected(self):
        obj = {"n_qubits": 1, "layers": [[{"qubits": [], "name": "X"}]]}
        with pytest.raises(SchemaError, match="non-empty"):
            circuit_from_json(obj)

    def test_named_gate_arity_mismatch_in_json(self):
        obj = {"n_qubits": 2, "layers": [[{"qubits": [0, 1], "name": "X"}]]}
        with pytest.raises(SchemaError, match="acts on 1 qubit"):
            circuit_from_json(obj)
