"""Tests for the per-qubit local-projection description engine."""

import concurrent.futures
import contextlib
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shallowcheck.description as description
import shallowcheck.linalg as linalg
from shallowcheck import (
    CapacityError,
    Circuit,
    Description,
    DomainError,
    Gate,
    Layer,
    LocalProjection,
    SchemaError,
    ValidationError,
    commutation_check,
    compute_description,
    description_from_json,
    description_to_json,
    embed,
    haar_unitary,
    initial_state_residuals,
    is_projection,
    named_gate,
    projection_entries_from_json,
    random_circuit,
    simulate,
)
from shallowcheck.cone import walk_light_cones
from shallowcheck.linalg import _conjugate, apply_local
from support import dagger, gate_in_sorted_order, intersection_rank_small, views, walk

TOL = 1e-12


def dense_reference_description(c):
    """Re-derive the description with dense embeds only.

    Same update rule as the production engine, but every gate is
    embedded into the full current support and conjugation happens as
    an ordinary triple matrix product.  Serves as an independent second
    route for cross-checking the contraction-based implementation.
    """
    n = c.n_qubits
    supports = [(t,) for t in range(n)]
    mats = [np.array([[1, 0], [0, 0]], dtype=complex) for _ in range(n)]
    for layer in c.layers:
        for t in range(n):
            current = set(supports[t])
            touched = [g for g in layer.gates if current.intersection(g.qubits)]
            if not touched:
                continue
            grown = set(current)
            for g in touched:
                grown.update(g.qubits)
            new = sorted(grown)
            p = embed(mats[t], list(supports[t]), new)
            for g in touched:
                gs = gate_in_sorted_order(g)
                u = embed(gs.matrix, list(gs.qubits), new)
                p = u @ p @ dagger(u)
            p = (p + dagger(p)) / 2
            supports[t] = tuple(new)
            mats[t] = p
    return supports, mats


def per_gate_reference_description(c):
    """Re-derive the description with one gate conjugated at a time.

    Each gate is one contraction on the row axes and one on the column
    axes (through transposes) of the full matrix, and the matrix is
    re-symmetrized after every layer: the same walk as the production
    engine, without its layer kernel.
    """
    cones = walk(c, [(t,) for t in range(c.n_qubits)], "support of qubit {}", c.n_qubits)
    supports, mats = [], []
    for t, steps in enumerate(cones):
        support, p = (t,), np.array([[1, 0], [0, 0]], dtype=complex)
        for _, touched, grown in steps:
            p = embed(p, support, grown)
            axis = {q: i for i, q in enumerate(grown)}
            for g in touched:
                axes = [axis[q] for q in g.qubits]
                p = apply_local(g.matrix, p, axes, len(grown))
                p = apply_local(dagger(g.matrix).T, p.T, axes, len(grown)).T
            p = (p + dagger(p)) / 2
            support = grown
        supports.append(support)
        mats.append(p)
    return supports, mats


def untiled_description(c):
    """The engine's walk with its last step untiled, as it stood before.

    Inside gates conjugate the matrix at the width they start from, the
    straddling ones the embedded matrix at the grown width, and the last
    matrix is made Hermitian once as ``(P + P†)/2``: the same kernel calls
    as the engine, so an entry that its last step keeps as one tile
    matches it bit for bit.
    """
    cones = walk(c, [(t,) for t in range(c.n_qubits)], "support of qubit {}", c.n_qubits)
    supports, mats = [], []
    for t, steps in enumerate(cones):
        support, p = (t,), np.array([[1, 0], [0, 0]], dtype=complex)
        for _, touched, grown in steps:
            axis = {q: i for i, q in enumerate(support)}
            inside = [g for g in touched if set(g.qubits) <= set(support)]
            straddling = [g for g in touched if not set(g.qubits) <= set(support)]
            if inside:
                layer = [(g.matrix, [axis[q] for q in g.qubits]) for g in inside]
                p = _conjugate(p, layer)
            if straddling:
                axis = {q: i for i, q in enumerate(grown)}
                layer = [(g.matrix, [axis[q] for q in g.qubits]) for g in straddling]
                p = _conjugate(embed(p, support, grown), layer)
            support = grown
        supports.append(support)
        mats.append((p + dagger(p)) / 2)
    return supports, mats


def _layer_gates(n, rng, smallest=0):
    """Haar gates on 1 to 3 of ``n`` shuffled qubits, in shuffled order.

    Gate qubits come from a permutation, so they are often reversed or
    non-adjacent.  Each gate draws its size from ``smallest`` to 3, and a
    draw of 0 leaves a qubit idle; only the last gate may be smaller.
    """
    free = [int(q) for q in rng.permutation(n)]
    gates = []
    while free:
        k = int(rng.integers(smallest, 4))
        if k == 0:
            free.pop()
            continue
        qubits, free = tuple(free[:k]), free[k:]
        gates.append(Gate(qubits, haar_unitary(len(qubits), rng)))
    return gates


@st.composite
def layered_circuits(draw, max_qubits=6, max_depth=4):
    """Circuits of 1- to 3-qubit Haar gates, some layers empty.

    Depth 0 gives ``Circuit(n)`` with no layers.
    """
    n = draw(st.integers(1, max_qubits))
    depth = draw(st.integers(0, max_depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = [
        Layer(() if rng.random() < 0.2 else tuple(_layer_gates(n, rng)))
        for _ in range(depth)
    ]
    return Circuit(n, tuple(layers))


@st.composite
def straddling_circuits(draw, max_qubits=7, max_depth=4):
    """Circuits whose layers cover every qubit with 2- and 3-qubit gates.

    After the first layer an entry's support holds several qubits, so a
    later layer has gates inside it next to gates that reach past it,
    among them 3-qubit gates on two old qubits and one new one.
    """
    n = draw(st.integers(3, max_qubits))
    depth = draw(st.integers(2, max_depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = [Layer(tuple(_layer_gates(n, rng, smallest=2))) for _ in range(depth)]
    return Circuit(n, tuple(layers))


def _assert_description_matches(d, supports, mats):
    assert [p.support for p in d.projections] == [tuple(s) for s in supports]
    for p, m in zip(d.projections, mats):
        assert np.max(np.abs(p.matrix - m)) <= TOL


@contextlib.contextmanager
def _host(cpus):
    """A host of ``cpus`` CPUs."""
    with mock.patch.object(
        os, "sched_getaffinity", return_value=set(range(cpus)), create=True
    ):
        yield


class _Blas:
    """Stands in for numpy's OpenBLAS, its thread count starting at ``threads``."""

    def __init__(self, threads):
        self.threads = threads
        self.counts = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.threads = threads
        self.counts.append(threads)


class _Starts:
    """Counts the threads started while it is entered."""

    def __enter__(self):
        self.count = 0
        start = threading.Thread.start

        def counting(thread):
            self.count += 1
            start(thread)

        self._patch = mock.patch.object(threading.Thread, "start", counting)
        self._patch.start()
        return self

    def __exit__(self, *exc):
        self._patch.stop()


class TestLayerKernel:
    """Differential tests of the layer kernel behind ``compute_description``."""

    @settings(max_examples=80, deadline=None)
    @given(layered_circuits())
    def test_matches_dense_reference(self, c):
        _assert_description_matches(
            compute_description(c), *dense_reference_description(c)
        )

    @settings(max_examples=80, deadline=None)
    @given(layered_circuits())
    def test_matches_per_gate_reference(self, c):
        _assert_description_matches(
            compute_description(c), *per_gate_reference_description(c)
        )

    @settings(max_examples=60, deadline=None)
    @given(straddling_circuits())
    def test_inside_and_straddling_gates_match_references(self, c):
        d = compute_description(c)
        _assert_description_matches(d, *dense_reference_description(c))
        _assert_description_matches(d, *per_gate_reference_description(c))

    @pytest.mark.parametrize("n, depth", [(6, 3), (9, 4), (10, 5)])
    def test_brickworks_up_to_width_10_match_references(self, n, depth):
        # Widths 6, 8 and 10, with gates at the two ends of each grown
        # support.
        c = random_circuit(n, depth, seed=n)
        d = compute_description(c)
        assert max(len(p.support) for p in d.projections) == 2 * depth
        _assert_description_matches(d, *dense_reference_description(c))
        _assert_description_matches(d, *per_gate_reference_description(c))
        for p in d.projections:
            assert np.array_equal(p.matrix, dagger(p.matrix))
            assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) <= TOL

    def test_tiled_last_step_that_does_not_grow_matches_reference(self):
        # The two central entries span all ten qubits a layer before the
        # last, so their last step is tiled and does not grow.
        c = random_circuit(10, 6, seed=1)
        cones = walk(c, [(t,) for t in range(10)], "support of qubit {}", 10)
        assert [t for t, steps in enumerate(cones) if steps[-2][2] == steps[-1][2]] == [4, 5]
        d = compute_description(c)
        _assert_description_matches(d, *per_gate_reference_description(c))
        for p in d.projections:
            assert np.array_equal(p.matrix, dagger(p.matrix))

    def test_inside_gates_are_conjugated_before_the_embed(self, monkeypatch, streams):
        # Each call records, in its thread's stream, the width of the
        # matrix it reads, the width it conjugates at, the gate matrices
        # it applies and, for an entry's last step, the matrix it returns.
        conjugate, final = description._conjugate, description._conjugate_hermitian

        def recording(mat, ops):
            width = mat.shape[0].bit_length() - 1
            streams.mine().append((width, width, [u for u, _ in ops], None))
            return conjugate(mat, ops)

        def recording_final(p, support, grown, ops, out=None):
            assert p.shape[0] == 1 << len(support)
            result = final(p, support, grown, ops, out)
            streams.mine().append((len(support), len(grown), [u for u, _ in ops], result))
            return result

        monkeypatch.setattr(description, "_conjugate", recording)
        monkeypatch.setattr(description, "_conjugate_hermitian", recording_final)
        c = random_circuit(10, 4, seed=3)
        with _host(4):
            d = compute_description(c)
        # Entries of one tile (width 8), so built on the pool.
        assert max(p.matrix.size for p in d.projections) == linalg._TILE
        found = streams.by_entry(d)
        assert sorted(found) == list(range(10))
        inside_ops = 0
        for t, steps in enumerate(
            walk(c, [(t,) for t in range(10)], "support of qubit {}", 10)
        ):
            calls = iter(found[t])
            support = (t,)
            for k, (_, touched, grown) in enumerate(steps, 1):
                inside = [g.matrix for g in touched if set(g.qubits) <= set(support)]
                straddling = [g.matrix for g in touched if not set(g.qubits) <= set(support)]
                # Every gate once: the inside ones at the width they start
                # from, the straddling ones at the grown width, which the
                # last step reaches from the previous width's matrix.
                last = len(support) if k == len(steps) else len(grown)
                for gates, widths in (
                    (inside, (len(support), len(support))),
                    (straddling, (last, len(grown))),
                ):
                    if gates:
                        read, at, ops, _ = next(calls)
                        assert (read, at) == widths
                        assert len(ops) == len(gates)
                        assert all(u is m for u, m in zip(ops, gates))
                inside_ops += len(inside)
                # A brickwork cone grows by at most one gate a side.
                assert len(straddling) <= 2
                support = grown
            assert next(calls, None) is None
        assert inside_ops > 0

    @pytest.mark.parametrize(
        "n, depth, seed", [(10, 4, 5), (5, 4, 1), (7, 6, 2), (12, 5, 2)]
    )
    def test_untiled_entries_are_bit_identical(self, n, depth, seed):
        # Entries of at most ``_TILE`` amplitudes (width 8), those whose
        # support stops growing before the last step among them, are the
        # untiled path's bits; wider ones (width 10) agree to 1e-12 and
        # are exactly Hermitian.
        c = random_circuit(n, depth, seed=seed)
        d = compute_description(c)
        supports, mats = untiled_description(c)
        _assert_description_matches(d, supports, mats)
        for p, m in zip(d.projections, mats):
            assert np.array_equal(p.matrix, dagger(p.matrix))
            if p.matrix.size <= linalg._TILE:
                assert np.array_equal(p.matrix.view(np.uint64), m.view(np.uint64))
        assert any(p.matrix.size > linalg._TILE for p in d.projections) == (n == 12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_conjugate_layer_matches_embedded_product(self, n, seed):
        # A general (non-Hermitian) matrix and one layer of gates in
        # shuffled order, against the product of the embedded gates.
        rng = np.random.default_rng(seed)
        dim = 1 << n
        mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        gates = _layer_gates(n, rng)
        u = np.eye(dim, dtype=complex)
        for g in gates:
            gs = gate_in_sorted_order(g)
            u = embed(gs.matrix, list(gs.qubits), list(range(n))) @ u
        got = _conjugate(mat, [(g.matrix, g.qubits) for g in gates])
        assert np.max(np.abs(got - u @ mat @ dagger(u))) <= TOL

    @pytest.mark.parametrize(
        "c",
        [
            Circuit(3),
            Circuit(4, (Layer(()), Layer(()))),
            # Reversed and non-adjacent qubits, a 3-qubit gate in shuffled
            # order, gates listed out of order, idle qubits inside a grown
            # support, and an empty layer between.
            Circuit(
                6,
                (
                    Layer((Gate((3, 1), haar_unitary(2, 1)), Gate((0,), haar_unitary(1, 2)))),
                    Layer(()),
                    Layer((Gate((5, 2, 4), haar_unitary(3, 3)), Gate((1, 0), haar_unitary(2, 4)))),
                    Layer((Gate((4, 3), haar_unitary(2, 5)),)),
                ),
            ),
            # Qubit 1's support grows {1, 3} -> {1, 3, 5} -> {0, 1, 3, 4, 5},
            # then takes a reversed, non-adjacent gate and a one-qubit gate
            # inside it beside a 3-qubit gate on two old qubits and one new.
            Circuit(
                6,
                (
                    Layer((Gate((3, 1), haar_unitary(2, 6)),)),
                    Layer((Gate((5, 3, 1), haar_unitary(3, 7)),)),
                    Layer((Gate((5, 1), haar_unitary(2, 8)), Gate((0, 3, 4), haar_unitary(3, 9)))),
                    Layer((
                        Gate((4, 0), haar_unitary(2, 10)),
                        Gate((2, 5, 1), haar_unitary(3, 11)),
                        Gate((3,), haar_unitary(1, 12)),
                    )),
                ),
            ),
        ],
        ids=["no-layers", "empty-layers", "mixed-layouts", "inside-and-straddling"],
    )
    def test_edge_cases_match_references(self, c):
        d = compute_description(c)
        _assert_description_matches(d, *dense_reference_description(c))
        _assert_description_matches(d, *per_gate_reference_description(c))


class TestLocalProjection:
    def test_support_must_be_sorted(self):
        with pytest.raises(DomainError):
            LocalProjection((1, 0), np.eye(4))

    def test_support_must_be_nonempty(self):
        with pytest.raises(DomainError):
            LocalProjection((), np.eye(1))

    def test_matrix_dimension(self):
        with pytest.raises(DomainError):
            LocalProjection((0, 1), np.eye(2))

    def test_negative_qubit_rejected(self):
        for support in [(-1,), (-2, 0)]:
            with pytest.raises(DomainError, match="negative"):
                LocalProjection(support, np.eye(1 << len(support)))

    @pytest.mark.parametrize("support", [(1.9, 2.2), (1.0, 2), (np.float64(1), 2), (True, 2)])
    def test_support_qubits_must_be_integers(self, support):
        with pytest.raises(DomainError, match="support qubit must be an integer"):
            LocalProjection(support, np.eye(4))

    def test_numpy_integer_support_becomes_ints(self):
        p = LocalProjection((np.int64(1), np.uint16(2)), np.eye(4))
        assert p.support == (1, 2) and all(type(q) is int for q in p.support)

    def test_description_qubit_count_must_be_an_integer(self):
        with pytest.raises(DomainError, match="n_qubits must be an integer"):
            Description(1.5, ())
        assert Description(np.int8(0), ()).n_qubits == 0

    @pytest.mark.parametrize(
        "use", [lambda d: d, commutation_check, initial_state_residuals, description_to_json]
    )
    def test_description_entries_must_be_local_projections(self, use):
        # A bad entry is a DomainError when the Description is built, so
        # no reader of its entries meets an AttributeError.
        with pytest.raises(DomainError) as exc:
            use(Description(3, ["x"]))
        assert str(exc.value) == "projection 0 must be a LocalProjection, got str"
        good = LocalProjection((0,), np.eye(2))
        with pytest.raises(DomainError, match="projection 1 must be a LocalProjection, got int"):
            use(Description(2, (good, 7)))

    def test_matrix_readonly(self):
        p = LocalProjection((0,), np.eye(2))
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 2.0

    def test_writable_matrix_is_copied(self):
        m = np.diag([1, 0]).astype(complex)
        p = LocalProjection((0,), m)
        assert p.matrix is not m
        m[0, 0] = 7.0
        assert p.matrix[0, 0] == 1.0
        assert m.flags.writeable

    def test_readonly_view_is_copied(self):
        m = np.diag([1, 0, 0, 0]).astype(complex)
        view = m[:2, :2]
        view.setflags(write=False)
        p = LocalProjection((0,), view)
        assert p.matrix is not view
        m[0, 0] = 7.0
        assert p.matrix[0, 0] == 1.0

    def test_readonly_view_of_readonly_array_is_kept(self):
        m = np.diag([1, 0, 0, 0]).astype(complex)
        view = m[:2, :2]
        view.setflags(write=False)
        m.setflags(write=False)
        assert LocalProjection((0,), view).matrix is view

    def test_described_matrices_are_not_copied(self, monkeypatch):
        # Serial at width 6, on the pool at width 10; the matrices are
        # matched to the entries by identity.
        built = []
        original = description._conjugate_hermitian

        def recording(*args):
            built.append(original(*args))
            return built[-1]

        monkeypatch.setattr(description, "_conjugate_hermitian", recording)
        for n, depth in ((6, 3), (10, 5)):
            built.clear()
            with _host(4):
                d = compute_description(random_circuit(n, depth, seed=2))
            assert len(built) == len(d.projections)
            assert {id(m) for m in built} == {id(p.matrix) for p in d.projections}
            for p in d.projections:
                assert not p.matrix.flags.writeable


class TestComputeDescription:
    def test_light_cone_supports_eight_qubits_depth_three(self):
        d = compute_description(random_circuit(8, 3, seed=0))
        expected = [
            (0, 1, 2, 3),
            (0, 1, 2, 3),
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 3, 4, 5),
            (2, 3, 4, 5, 6, 7),
            (2, 3, 4, 5, 6, 7),
            (4, 5, 6, 7),
            (4, 5, 6, 7),
        ]
        assert [p.support for p in d.projections] == expected

    def test_depth_zero(self):
        d = compute_description(Circuit(3))
        assert [p.support for p in d.projections] == [(0,), (1,), (2,)]
        for p in d.projections:
            assert np.array_equal(p.matrix, [[1, 0], [0, 0]])

    def test_entry_count_matches_qubits(self):
        for n in (2, 5, 9):
            d = compute_description(random_circuit(n, 2, seed=n))
            assert d.n_qubits == n
            assert len(d.projections) == n

    def test_entries_are_projections(self):
        d = compute_description(random_circuit(7, 3, seed=4))
        for p in d.projections:
            assert is_projection(p.matrix, 1e-10)

    def test_deterministic_bit_identical(self):
        a = compute_description(random_circuit(6, 3, seed=8))
        b = compute_description(random_circuit(6, 3, seed=8))
        for pa, pb in zip(a.projections, b.projections):
            assert pa.support == pb.support
            assert np.array_equal(pa.matrix, pb.matrix)

    def test_supports_grow_monotonically_with_depth(self):
        c = random_circuit(8, 4, seed=10)
        previous = None
        for k in range(c.depth + 1):
            prefix = Circuit(c.n_qubits, c.layers[:k])
            d = compute_description(prefix)
            supports = [set(p.support) for p in d.projections]
            if previous is not None:
                for old, new in zip(previous, supports):
                    assert old <= new
            previous = supports

    def test_support_bound_two_per_layer(self):
        for seed, (n, depth) in enumerate([(6, 1), (8, 2), (10, 3)]):
            d = compute_description(random_circuit(n, depth, seed=seed))
            for p in d.projections:
                assert len(p.support) <= 2 * depth

    def test_invalid_circuit_rejected(self):
        c = Circuit(2, [Layer([named_gate("X", (7,))])])
        with pytest.raises(ValidationError, match="out of range"):
            compute_description(c)

    def test_capacity_error_names_qubit_and_layer(self):
        c = random_circuit(8, 3, seed=1)
        with pytest.raises(CapacityError) as exc:
            compute_description(c, cap=3)
        assert "qubit 2" in str(exc.value)
        assert "layer 1" in str(exc.value)
        assert exc.value.size == 4
        assert exc.value.cap == 3

    def test_env_cap_honored(self, monkeypatch):
        from shallowcheck.config import SUPPORT_CAP_ENV

        monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
        with pytest.raises(CapacityError):
            compute_description(random_circuit(8, 3, seed=1))

    def test_matches_dense_reference(self):
        c = random_circuit(6, 3, seed=17)
        d = compute_description(c)
        ref_supports, ref_mats = dense_reference_description(c)
        for p, s, m in zip(d.projections, ref_supports, ref_mats):
            assert p.support == s
            assert np.allclose(p.matrix, m, atol=1e-12)

    def test_wide_middle_steps_give_exact_entries(self):
        # Middle steps up to width 10 and entries up to width 11, the
        # widest description the suite builds.
        c = random_circuit(11, 6, seed=1)
        d = compute_description(c)
        psi = simulate(c)
        widths = []
        for t, p in enumerate(d.projections):
            cone = {t}
            for layer in c.layers:
                for g in layer.gates:
                    if cone & set(g.qubits):
                        cone |= set(g.qubits)
            assert p.support == tuple(sorted(cone))
            w = len(p.support)
            widths.append(w)
            assert np.array_equal(p.matrix, dagger(p.matrix))
            assert abs(np.trace(p.matrix) - 2 ** (w - 1)) <= 1e-9
            fixed = apply_local(p.matrix, psi, list(p.support), c.n_qubits)
            assert np.max(np.abs(fixed - psi)) <= 1e-10
        assert max(widths) == 11


@st.composite
def brickworks(draw, max_qubits=12, max_depth=5):
    """``random_circuit`` brickworks, up to width 10 at depth 5."""
    n = draw(st.integers(2, max_qubits))
    depth = draw(st.integers(0, max_depth))
    return random_circuit(n, depth, seed=draw(st.integers(0, 2**32 - 1)))


class TestPool:
    """Descriptions with an entry of one tile or more are built on one
    pool thread per CPU of ``os.sched_getaffinity(0)`` while numpy's
    bundled OpenBLAS runs on one thread."""

    @staticmethod
    def _bits(d):
        return [
            (p.support, p.matrix.tobytes(), p.matrix.flags.writeable)
            for p in d.projections
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(brickworks(), layered_circuits(max_qubits=9, max_depth=5)))
    @example(random_circuit(12, 5, seed=1))
    @example(random_circuit(10, 4, seed=3))
    def test_pool_on_and_off_are_bit_identical(self, c):
        # The pool is forced on for every description by a tile of 0
        # amplitudes, and off by a single CPU.
        with _host(1), _Starts() as starts:
            serial = compute_description(c)
        assert starts.count == 0
        with _host(4), mock.patch.object(description, "_TILE", 0), _Starts() as starts:
            pooled = compute_description(c)
        assert starts.count > 0
        assert self._bits(pooled) == self._bits(serial)

    def test_pool_needs_no_blas_variable(self, monkeypatch):
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        c = random_circuit(14, 5, seed=1)
        with _host(1):
            serial = compute_description(c)
        if description._openblas() is None:
            pytest.skip("numpy does not run on its bundled OpenBLAS")
        with _host(2), _Starts() as starts:
            pooled = compute_description(c)
        assert starts.count == 2
        assert self._bits(pooled) == self._bits(serial)

    def test_blas_count_is_one_while_pooled_and_restored_after(self, blas_threads):
        seen = []
        entry = description._entry

        def recording(*args):
            seen.append(blas_threads())
            return entry(*args)

        with _host(4), mock.patch.object(description, "_entry", recording):
            compute_description(random_circuit(12, 5, seed=1))
        assert seen == [1] * 12
        assert blas_threads() == 2

    def test_overlapping_describes_restore_the_blas_count(self, blas_threads):
        # Two threads describe at once: a pool that did not wait for the
        # other would read its count of 1 and could restore that last.
        c = random_circuit(12, 5, seed=1)
        for _ in range(5):
            built = []
            callers = [
                threading.Thread(target=lambda: built.append(compute_description(c)))
                for _ in range(2)
            ]
            with _host(2):
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
            assert not any(caller.is_alive() for caller in callers)
            assert len(built) == 2
            assert blas_threads() == 2

    def test_error_in_one_entry_propagates_and_stops_the_pool(self, blas_threads):
        # Width 10, 12 entries: the first last step fails, and the entries
        # not yet started then are cancelled, so most are never built.
        injected = RuntimeError("injected")
        threads, calls = set(), []
        final = description._conjugate_hermitian

        def failing(*args):
            threads.add(threading.current_thread())
            calls.append(None)
            if len(calls) == 1:
                raise injected
            return final(*args)

        with _host(4), mock.patch.object(description, "_conjugate_hermitian", failing):
            with pytest.raises(RuntimeError) as exc:
                compute_description(random_circuit(12, 5, seed=1))
        assert exc.value is injected
        assert len(calls) < 12
        assert threading.current_thread() not in threads
        assert not any(t.is_alive() for t in threads)
        assert blas_threads() == 2

    def test_interrupt_while_waiting_cancels_and_restores(self, blas_threads):
        # A KeyboardInterrupt in the waiting caller: the queued entries are
        # cancelled, the running ones end, and the BLAS count is restored.
        built = []
        entry = description._entry

        def recording(*args):
            built.append(threading.current_thread())
            return entry(*args)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        spy = mock.patch.object(description, "_entry", recording)
        stop = mock.patch.object(concurrent.futures, "wait", interrupted)
        with _host(2), spy, stop, pytest.raises(KeyboardInterrupt):
            compute_description(random_circuit(12, 5, seed=1))
        assert len(built) < 12
        assert not any(t.is_alive() for t in built)
        assert blas_threads() == 2

    @pytest.mark.parametrize(
        "cpus, blas, n, depth, started",
        [
            (1, 1, 12, 5, 0),  # one CPU, width 10
            (1, 1, 10, 4, 0),  # one CPU, width 8
            (4, 1, 20, 3, 0),  # width 6, below a tile
            (4, None, 12, 5, 0),  # a BLAS whose thread count cannot be set
            (4, 4, 12, 5, 4),  # the BLAS on every CPU, pinned while pooled
            (4, 2, 12, 5, 4),
            (3, 2, 12, 5, 3),
            (2, 1, 10, 4, 2),  # one tile
        ],
    )
    def test_threads_started(self, cpus, blas, n, depth, started):
        # ``blas`` is the fake BLAS's thread count before the call, or
        # ``None`` when the lookup finds no count to set.
        fake = _Blas(blas)
        lookup = None if blas is None else (fake.get, fake.set)
        with _host(cpus), mock.patch.object(description, "_openblas", lambda: lookup):
            with _Starts() as starts:
                compute_description(random_circuit(n, depth, seed=1))
        assert starts.count == started
        assert fake.counts == ([1, blas] if started else [])

    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert description._pool_threads() == 4

    def test_stress_each_entry_built_once(self):
        # Eight pool threads on this host's CPUs, switching threads every
        # microsecond: a lost update of the executor's queue would build
        # an entry twice or leave one out.
        c = random_circuit(24, 4, seed=5)
        with _host(1):
            serial = compute_description(c)
        built = []
        entry = description._entry

        def recording(*args):
            built.append(args[0])
            return entry(*args)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _host(8), mock.patch.object(description, "_entry", recording):
                pooled = compute_description(c)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(built) == list(range(24))
        assert self._bits(pooled) == self._bits(serial)

    def test_capacity_error_comes_before_any_entry(self):
        built = []
        entry = description._entry

        def recording(*args):
            built.append(args[0])
            return entry(*args)

        spy = mock.patch.object(description, "_entry", recording)
        with _host(4), _Starts() as starts, spy:
            message = "qubit 4 would reach 10 qubit\\(s\\) at layer 4"
            with pytest.raises(CapacityError, match=message):
                compute_description(random_circuit(12, 5, seed=1), cap=9)
            assert built == [] and starts.count == 0
            compute_description(random_circuit(12, 5, seed=1), cap=10)
            assert sorted(built) == list(range(12)) and starts.count > 0


class TestDescriptionSemantics:
    def test_product_projector_fixes_output_state(self):
        c = random_circuit(4, 2, seed=3)
        psi = simulate(c)
        d = compute_description(c)
        w = psi
        for p in d.projections:
            w = apply_local(p.matrix, w, list(p.support), 4)
        assert np.allclose(w, psi, atol=1e-10)

    def test_product_projector_image_is_output_state(self):
        c = random_circuit(4, 2, seed=13)
        psi = simulate(c)
        d = compute_description(c)
        rng = np.random.default_rng(99)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        for p in d.projections:
            v = apply_local(p.matrix, v, list(p.support), 4)
        v = v / np.linalg.norm(v)
        fidelity = abs(np.vdot(psi, v)) ** 2
        assert fidelity >= 1 - 1e-9

    def test_intersection_rank_is_one(self):
        d = compute_description(random_circuit(5, 2, seed=6))
        assert intersection_rank_small(d) == 1

    def test_deleting_one_entry_doubles_the_intersection(self):
        d = compute_description(random_circuit(6, 2, seed=2))
        sub = Description(
            6, tuple(p for i, p in enumerate(d.projections) if i != 3)
        )
        assert intersection_rank_small(sub) == 2

    def test_rank_cap(self):
        d = compute_description(Circuit(3))
        with pytest.raises(CapacityError):
            intersection_rank_small(d, cap=2)


class TestResiduals:
    def test_identity_circuit_zero_residuals(self):
        d = compute_description(Circuit(2))
        for r in initial_state_residuals(d):
            assert r == (0.0, 0.0, 0.0)

    def test_bit_flip_gives_maximal_residual(self):
        c = Circuit(1, [Layer([named_gate("X", (0,))])])
        (r,) = initial_state_residuals(compute_description(c))
        assert r.linf == pytest.approx(1.0)

    def test_hadamard_residual(self):
        c = Circuit(1, [Layer([named_gate("H", (0,))])])
        (r,) = initial_state_residuals(compute_description(c))
        assert r.l1 == pytest.approx(0.5)
        assert r.l2 == pytest.approx(0.5)
        assert r.linf == pytest.approx(0.5)


class TestCommutation:
    def test_disjoint_supports_commute_exactly(self):
        d = compute_description(Circuit(4))
        assert commutation_check(d) == 0.0

    def test_random_descriptions_commute(self):
        for seed in (1, 2, 3):
            d = compute_description(random_circuit(8, 3, seed=seed))
            assert commutation_check(d) <= 1e-12

    def test_non_commuting_pair_detected(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        entries = (
            LocalProjection((0,), np.diag([1.0, 0.0])),
            LocalProjection((0,), plus),
        )
        dev = commutation_check(Description(1, entries))
        assert dev == pytest.approx(0.5)

    def test_bell_projector_against_local_one(self):
        bell = np.zeros((4, 4), dtype=complex)
        v = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        bell += np.outer(v, v.conj())
        entries = (
            LocalProjection((0, 1), bell),
            LocalProjection((0,), np.diag([1.0, 0.0])),
        )
        assert commutation_check(Description(2, entries)) > 0.1

    def test_capacity_error_names_entries(self):
        d = compute_description(random_circuit(8, 3, seed=1))
        with pytest.raises(CapacityError, match="entries"):
            commutation_check(d, cap=5)

    @pytest.mark.parametrize("cap", [0, -3])
    @pytest.mark.parametrize("overlapping", [True, False])
    def test_cap_below_one_rejected_as_by_the_walker(self, cap, overlapping):
        # Entries of a brickwork overlap; those of a circuit with no
        # layers do not, so no pair reaches the union-support check.
        c = random_circuit(4, 2, seed=1) if overlapping else Circuit(3)
        d = compute_description(c)
        with pytest.raises(DomainError) as walker:
            walk_light_cones(views(c), [(0,)], "support of qubit {}", cap)
        with pytest.raises(DomainError) as exc:
            commutation_check(d, cap=cap)
        assert str(exc.value) == str(walker.value)
        with pytest.raises(DomainError, match="at least 1"):
            list(description.commutator_deviations(d.projections, cap))


class TestJson:
    def test_round_trip(self):
        d = compute_description(random_circuit(5, 2, seed=11))
        back = description_from_json(description_to_json(d))
        assert back.n_qubits == d.n_qubits
        for pa, pb in zip(d.projections, back.projections):
            assert pa.support == pb.support
            assert np.allclose(pa.matrix, pb.matrix, atol=1e-15)

    def test_entry_count_enforced_for_descriptions(self):
        d = compute_description(Circuit(2))
        obj = description_to_json(d)
        obj["projections"].pop()
        with pytest.raises(SchemaError, match="one per qubit"):
            description_from_json(obj)

    def test_assertion_tuples_may_have_any_length(self):
        d = compute_description(Circuit(2))
        obj = description_to_json(d)
        obj["projections"].pop()
        n, entries = projection_entries_from_json(obj)
        assert n == 2
        assert len(entries) == 1

    def test_unknown_field_rejected(self):
        obj = description_to_json(compute_description(Circuit(1)))
        obj["extra"] = 1
        with pytest.raises(SchemaError, match="unknown field"):
            description_from_json(obj)

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"n_qubits": 1, "projections": [], "version": 2, "author": "a"},
                "description: unknown field(s) ['author', 'version']",
            ),
            ({"projections": []}, "description: missing required field 'n_qubits'"),
            ({"n_qubits": 1}, "description: missing required field 'projections'"),
            # Unknown fields are reported before missing ones.
            ({"extra": 0}, "description: unknown field(s) ['extra']"),
            (
                {"n_qubits": 1, "projections": [
                    {"support": [0], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                    {"support": [0], "label": "a", "kind": "b"},
                ]},
                "projections[1]: unknown field(s) ['kind', 'label']",
            ),
            (
                {"n_qubits": 1, "projections": [{"support": [0]}]},
                "projections[0]: missing required field 'matrix'",
            ),
            (
                {"n_qubits": 1, "projections": [{}]},
                "projections[0]: missing required field 'support'",
            ),
            ([], "description: expected a JSON object at top level"),
            ({"n_qubits": 0, "projections": []}, "n_qubits: must be at least 1, got 0"),
            ({"n_qubits": 1, "projections": {}}, "projections: expected a list"),
            ({"n_qubits": 1, "projections": [1]}, "projections[0]: expected an object"),
            (
                {"n_qubits": 1, "projections": [{"support": [], "matrix": [[[1, 0]]]}]},
                "projections[0].support: expected a non-empty list",
            ),
        ],
    )
    def test_field_check_messages(self, obj, message):
        with pytest.raises(SchemaError) as raised:
            projection_entries_from_json(obj)
        assert str(raised.value) == message
        with pytest.raises(SchemaError) as raised:
            description_from_json(obj)
        assert str(raised.value) == message

    def test_unsorted_support_rejected(self):
        zero_row = [[0, 0]] * 4
        matrix = [[[1, 0], [0, 0], [0, 0], [0, 0]], zero_row, zero_row, zero_row]
        obj = {
            "n_qubits": 2,
            "projections": [{"support": [1, 0], "matrix": matrix}],
        }
        with pytest.raises(SchemaError, match="sorted"):
            projection_entries_from_json(obj)

    def test_out_of_range_support_rejected(self):
        obj = {
            "n_qubits": 1,
            "projections": [{"support": [1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}],
        }
        with pytest.raises(SchemaError, match="out of range"):
            projection_entries_from_json(obj)

    def test_matrix_support_size_mismatch(self):
        obj = {
            "n_qubits": 2,
            "projections": [{"support": [0, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}],
        }
        with pytest.raises(SchemaError, match="does not match 2 qubit"):
            projection_entries_from_json(obj)
