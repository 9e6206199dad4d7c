"""Tests for dense operator primitives and the bit-ordering convention."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shallowcheck.description as description
import shallowcheck.linalg as linalg
from shallowcheck import (
    DomainError,
    check_strong,
    check_weak,
    compute_description,
    embed,
    haar_unitary,
    is_projection,
    membership_residual,
    random_circuit,
    verify_static,
    zero_state,
)
from shallowcheck.config import SUPPORT_CAP_ENV
from shallowcheck.linalg import (
    _conjugate_hermitian,
    apply_layer,
    apply_local,
    conjugate_layer,
)
from support import dagger, max_abs

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)


def small_unitaries(k_qubits):
    """Deterministic Haar-ish unitaries for property-style checks."""
    rng = np.random.default_rng(20240 + k_qubits)
    out = []
    for _ in range(4):
        g = rng.normal(size=(1 << k_qubits,) * 2) + 1j * rng.normal(
            size=(1 << k_qubits,) * 2
        )
        q, _ = np.linalg.qr(g)
        out.append(q)
    return out


class TestBasics:
    def test_zero_state(self):
        v = zero_state(3)
        assert v.shape == (8,)
        assert v[0] == 1.0
        assert np.count_nonzero(v) == 1

    def test_max_abs(self):
        assert max_abs(np.array([[1, -3j], [2, 0]])) == 3.0
        assert max_abs(np.array([])) == 0.0

    def test_dagger_s_gate(self):
        assert np.array_equal(dagger(S), np.diag([1, -1j]))

    def test_dagger_involution(self):
        for u in small_unitaries(2):
            assert np.allclose(dagger(dagger(u)), u)


class TestEmbed:
    def test_single_qubit_into_three(self):
        m = embed(X, [2], [1, 2, 3])
        # qubit 1 is the most significant of the target; X flips qubit 2.
        v = np.zeros(8)
        v[0b010] = 1.0
        assert np.allclose(m @ v, np.eye(8)[0b000])

    def test_identity_support_is_exact(self):
        u = small_unitaries(2)[0]
        assert np.array_equal(embed(u, [4, 7], [4, 7]), u)

    def test_projection_on_outer_qubits(self):
        p00 = np.zeros((4, 4), dtype=complex)
        p00[0, 0] = 1.0
        m = embed(p00, [1, 3], [1, 2, 3])
        assert np.allclose(m, np.diag([1, 0, 1, 0, 0, 0, 0, 0]))

    def test_matches_kron_when_contiguous(self):
        u = small_unitaries(1)[0]
        assert np.allclose(embed(u, [0], [0, 1]), np.kron(u, np.eye(2)))
        assert np.allclose(embed(u, [1], [0, 1]), np.kron(np.eye(2), u))

    def test_unsorted_support_rejected(self):
        with pytest.raises(DomainError):
            embed(np.eye(4), [2, 1], [1, 2, 3])

    def test_duplicate_support_rejected(self):
        with pytest.raises(DomainError):
            embed(np.eye(4), [1, 1], [1, 2])

    def test_non_subset_rejected(self):
        with pytest.raises(DomainError):
            embed(X, [0], [1, 2])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            embed(np.eye(2), [0, 1], [0, 1, 2])

    def test_cap_override_honoured(self, monkeypatch):
        # ``embed`` sets no cap of its own: an explicit cap above the
        # configured one is honoured, since every caller bounds its target.
        monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
        d = compute_description(random_circuit(8, 3, seed=1), cap=8)
        assert max(len(p.support) for p in d.projections) == 6
        assert embed(X, [0], [0, 1, 2, 3]).shape == (16, 16)

    def test_embedding_preserves_unitarity(self):
        for u in small_unitaries(2):
            m = embed(u, [0, 2], [0, 1, 2, 3])
            assert max_abs(m @ dagger(m) - np.eye(16)) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_block_loop(self, m, seed):
        rng = np.random.default_rng(seed)
        tgt = sorted(int(q) for q in rng.choice(12, size=m, replace=False))
        ops = sorted(int(q) for q in rng.choice(tgt, size=rng.integers(0, m + 1), replace=False))
        dim = 1 << len(ops)
        op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        op[rng.random((dim, dim)) < 0.3] *= -0.0
        got = embed(op, ops, tgt)
        want = _embed_block_loop(op, ops, tgt)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _embed_block_loop(op, ops, tgt):
    """``embed`` as one indexed assignment per identity block."""
    k, m = len(ops), len(tgt)
    weight = {q: 1 << (m - 1 - i) for i, q in enumerate(tgt)}
    sub = np.zeros(1 << k, dtype=np.intp)
    for j, q in enumerate(ops):
        sub += ((np.arange(1 << k) >> (k - 1 - j)) & 1) * weight[q]
    rest = [q for q in tgt if q not in ops]
    out = np.zeros((1 << m, 1 << m), dtype=complex)
    for g in range(1 << len(rest)):
        offset = sum(
            weight[q] for j, q in enumerate(rest) if (g >> (len(rest) - 1 - j)) & 1
        )
        out[np.ix_(sub + offset, sub + offset)] = op
    return out


def _sorted_op(u, axes):
    """``u`` with its qubits reordered to ascending ``axes``, for ``embed``."""
    k = len(axes)
    order = [int(i) for i in np.argsort(axes)]
    t = u.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order])
    return t.reshape(1 << k, 1 << k), sorted(axes)


class TestApplyLayer:
    """The one gate contraction against embed-and-multiply."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 7), st.booleans(), st.sampled_from([0, 1, 2, 3]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_embedded_product(self, n, trailing, batch, seed):
        # Ops on 1 to 3 axes drawn from a permutation: shuffled, reversed
        # and non-adjacent axes, idle axes, sometimes no op at all, and
        # optionally a trailing non-qubit axis of size 3 that rides along.
        # With ``batch`` members the tensor gets a leading batch axis and
        # most ops a stack of one Haar matrix per member; the rest are
        # one matrix that every member shares.
        rng = np.random.default_rng(seed)
        free = [int(q) for q in rng.permutation(n)]
        lead = 1 if batch else 0
        ops = []
        while free and rng.random() < 0.8:
            k = min(int(rng.integers(1, 4)), len(free))
            axes, free = free[:k], free[k:]
            if batch and rng.random() < 0.7:
                u = np.stack([haar_unitary(k, rng) for _ in range(batch)])
            else:
                u = haar_unitary(k, rng)
            ops.append((u, [lead + a for a in axes]))
        shape = (batch,) * lead + (2,) * n + ((3,) if trailing else ())
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        before = tensor.copy()
        got = apply_layer(tensor, ops)
        assert got.shape == shape
        assert np.array_equal(tensor, before)
        members = zip(tensor, got) if batch else [(tensor, got)]
        for b, (rows, out) in enumerate(members):
            dense = np.eye(1 << n, dtype=complex)
            for u, axes in ops:
                op = _sorted_op(u[b] if u.ndim == 3 else u, [a - lead for a in axes])
                dense = embed(*op, list(range(n))) @ dense
            want = (dense @ rows.reshape(1 << n, -1)).reshape(rows.shape)
            assert max_abs(out - want) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9), st.integers(0, 3), st.integers(0, 2), st.integers(0, 3),
        st.integers(0, 3), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1),
    )
    @example(9, 1, 0, 2, 2, False, False, 0)  # leading, middle (B = 64), trailing
    @example(7, 1, 1, 2, 2, False, False, 0)  # a middle block with B = 8
    @example(9, 1, 1, 1, 2, False, False, 2)  # leading op first, idle axes behind
    @example(9, 1, 1, 1, 0, True, False, 1)  # with a riding axis
    @example(9, 1, 1, 1, 2, False, True, 2)  # Fortran-ordered: transposed
    def test_contiguous_blocks_match_embedded_product(
        self, n, lead, gap, mid, trail, riding, strided, seed
    ):
        # Plain matrices on contiguous, ascending blocks, in shuffled
        # order: ``lead`` axes at the leading edge, ``gap`` idle axes,
        # ``mid`` axes in the middle and ``trail`` axes at the trailing
        # edge, each cut short where the axes run out.  The axes after
        # the middle block make ``B`` fall on both sides of 64.  A riding
        # axis of size 3 puts the trailing block in the middle, and a
        # Fortran-ordered input is not C-contiguous.
        self._check_contiguous_blocks(n, lead, gap, mid, trail, riding, strided, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(7, 9), st.integers(1, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
    )
    def test_straddling_conjugation_matches_dense(self, w, lead, trail, seed):
        # Straddling layers as the description engine makes them: a gate
        # at the leading edge, short enough that its column op has 64
        # entries behind it, and maybe one at the trailing edge, with at
        # least one idle axis between.
        rng = np.random.default_rng(seed)
        lead = min(lead, w - 6)
        trail = min(trail, w - lead - 1)
        ops = [(haar_unitary(lead, rng), list(range(lead)))]
        if trail:
            ops.append((haar_unitary(trail, rng), list(range(w - trail, w))))
        mat = rng.normal(size=(1 << w,) * 2) + 1j * rng.normal(size=(1 << w,) * 2)
        got = conjugate_layer(mat, ops, w)
        u = np.eye(1 << w, dtype=complex)
        for g, axes in ops:
            u = embed(g, axes, list(range(w))) @ u
        assert max_abs(got - u @ mat @ dagger(u)) <= 1e-12

    @staticmethod
    def _check_contiguous_blocks(n, lead, gap, mid, trail, riding, strided, seed):
        rng = np.random.default_rng(seed)
        blocks, first = [], 0
        for k, acted in ((lead, True), (gap, False), (mid, True)):
            k = min(k, n - first)
            if acted and k:
                blocks.append(range(first, first + k))
            first += k
        trail = min(trail, n - first)
        if trail:
            blocks.append(range(n - trail, n))
        ops = [(haar_unitary(len(b), rng), list(b)) for b in blocks]
        ops = [ops[i] for i in rng.permutation(len(ops))]
        shape = (2,) * n + ((3,) if riding else ())
        tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if strided:
            tensor = np.asfortranarray(tensor)
        before = tensor.copy()
        got = apply_layer(tensor, ops)
        assert got.shape == shape
        assert np.array_equal(tensor, before)
        dense = np.eye(1 << n, dtype=complex)
        for u, axes in ops:
            dense = embed(u, axes, list(range(n))) @ dense
        want = (dense @ tensor.reshape(1 << n, -1)).reshape(shape)
        assert max_abs(got - want) <= 1e-12

    def test_edge_form_runs_for_straddling_gates_never_for_stacks(self, monkeypatch, streams):
        # Each apply_layer call records, in its thread's list, whether the
        # transpose-free form ran; each describe call records, in its
        # thread's stream, its gates' positions, its width, those records
        # and, for an entry's last step, the matrix it returns.
        taken, layers = {}, {}
        edges, apply = linalg._apply_edges, linalg.apply_layer

        def mine(records):
            return records.setdefault(threading.get_ident(), [])

        def spy(tensor, ops, blocks):
            mine(taken).append(ops)
            return edges(tensor, ops, blocks)

        def spy_layer(tensor, ops):
            count = len(mine(taken))
            out = apply(tensor, ops)
            mine(layers).append(len(mine(taken)) > count)
            return out

        conjugate, final = description.conjugate_layer, description._conjugate_hermitian

        def record(mat, ops, n):
            start = len(mine(layers))
            out = conjugate(mat, ops, n)
            streams.mine().append(([list(p) for _, p in ops], n, mine(layers)[start:], None))
            return out

        def record_final(p, support, grown, ops, out=None):
            start = len(mine(layers))
            result = final(p, support, grown, ops, out)
            positions = [list(q) for _, q in ops]
            streams.mine().append((positions, len(grown), mine(layers)[start:], result))
            return result

        monkeypatch.setattr(linalg, "_apply_edges", spy)
        monkeypatch.setattr(linalg, "apply_layer", spy_layer)
        monkeypatch.setattr(description, "conjugate_layer", record)
        monkeypatch.setattr(description, "_conjugate_hermitian", record_final)
        # Four CPUs and the BLAS on one thread: wide descriptions are
        # built on the pool.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        # Gates at the ends of a support of 8 or more, short of covering
        # it: every straddling call at the widths where ``B >= 64`` holds
        # for the gates at the start of the column axes, whole at width
        # 8 and in tiles of width 8 at width 10.
        d = compute_description(random_circuit(12, 5, seed=1))
        # Widths up to 10, built on the pool: each entry's calls grow to
        # its width in one thread's stream.
        found = streams.by_entry(d)
        assert sorted(found) == list(range(12))
        for t, entry in found.items():
            widths = [n for _, n, _, _ in entry]
            assert widths == sorted(widths)
            assert widths[-1] == len(d.projections[t].support)
        ends = [
            (positions, n, runs)
            for entry in found.values()
            for positions, n, runs, _ in entry
            if n >= 8 and sum(map(len, positions)) < n
            and all(0 in p or n - 1 in p for p in positions)
        ]
        assert ends and all(all(runs) for *_, runs in ends)
        assert {8, 10} <= {n for _, n, _ in ends}
        c, other = random_circuit(8, 2, seed=1), random_circuit(8, 2, seed=2)
        claims = compute_description(other)
        taken.clear()
        check_weak(c, other)
        check_strong(c, other)
        verify_static(c, claims)
        assert not any(taken.values())


class TestConjugateHermitian:
    """The last step of a described entry, :func:`linalg._conjugate_hermitian`,
    against ``embed``, ``conjugate_layer`` and ``(P + P†)/2``."""

    @staticmethod
    def _reference(p, support, grown, ops):
        q = embed(p, support, grown) if list(support) != list(grown) else p
        q = conjugate_layer(q, ops, len(grown))
        return (q + dagger(q)) / 2

    @classmethod
    def _check(cls, p, support, grown, ops, tile=None):
        before = p.copy()
        with pytest.MonkeyPatch.context() as patch:
            if tile is not None:
                patch.setattr(linalg, "_TILE", tile)
            got = _conjugate_hermitian(p, support, grown, ops)
        assert np.array_equal(p.view(np.uint64), before.view(np.uint64))
        assert np.array_equal(got, got.conj().T)
        assert max_abs(got - cls._reference(p, support, grown, ops)) <= 1e-12
        return got

    @staticmethod
    def _hermitian(w, rng):
        a = rng.normal(size=(1 << w,) * 2) + 1j * rng.normal(size=(1 << w,) * 2)
        return (a + dagger(a)) / 2

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 7), st.integers(0, 2**32 - 1),
        st.sampled_from([1, 4, 16, 64, 256, 1 << 10]),
    )
    def test_tiles_match_embedded_conjugate(self, w, seed, tile):
        # A random support inside ``grown``, new qubits anywhere in it, and
        # one layer of 1- to 3-qubit gates in shuffled qubit order that
        # touches every new qubit and a random share of the old ones: no
        # idle axis, or fewer than a tile of ``_TILE`` needs, included.
        rng = np.random.default_rng(seed)
        grown = sorted(rng.choice(12, size=w, replace=False).tolist())
        old = rng.random(w) < 0.6
        old[rng.integers(w)] = True
        support = [q for q, o in zip(grown, old) if o]
        acted = [
            a for a in rng.permutation(w).tolist() if not old[a] or rng.random() < 0.5
        ]
        ops = []
        while acted:
            k = int(rng.integers(1, 4))
            ops.append((haar_unitary(len(acted[:k]), rng), acted[:k]))
            acted = acted[k:]
        self._check(self._hermitian(len(support), rng), support, grown, ops, tile)

    @pytest.mark.parametrize(
        "support, grown, gates",
        [
            # Brickwork ends: a new qubit at each end, idle axes between.
            (range(1, 6), range(7), [[0, 1], [5, 6]]),
            (range(0, 5), range(6), [[4, 5]]),
            # A 3-qubit gate on two old qubits and a new one in the middle.
            ([0, 1, 3, 4, 6], range(7), [[3, 2, 1], [6, 5]]),
            # No idle axis.
            ([0, 2], [0, 1, 2, 3], [[1, 0], [2, 3]]),
            # One idle axis, fewer than the split of a tiny ``_TILE``.
            ([1, 2, 3], [0, 1, 2, 3, 4], [[0, 1], [3, 4]]),
            # Inside gates only, on a support that does not grow.
            (range(6), range(6), [[2, 1], [4]]),
        ],
        ids=["brickwork", "one-end", "middle-new", "no-idle", "one-idle", "inside"],
    )
    @pytest.mark.parametrize("tile", [1, 16, 4**7])
    def test_layouts_match_embedded_conjugate(self, support, grown, gates, tile):
        rng = np.random.default_rng(len(gates) + tile)
        ops = [(haar_unitary(len(g), rng), g) for g in gates]
        p = self._hermitian(len(support), rng)
        self._check(p, list(support), list(grown), ops, tile)

    @pytest.mark.parametrize("w", [2, 5, 8])
    def test_one_tile_is_bit_identical_to_conjugate_then_hermitian_part(self, w):
        # At most ``_TILE`` amplitudes (width 8): today's embed, conjugate
        # and ``(P + P†)/2``, bit for bit, whether or not idle axes exist.
        rng = np.random.default_rng(w)
        ops = [(haar_unitary(2, rng), [0, 1])]
        if w > 4:
            ops.append((haar_unitary(2, rng), [w - 1, w - 2]))
        p = self._hermitian(w - 1, rng)
        support, grown = list(range(1, w)), list(range(w))
        got = self._check(p, support, grown, ops)
        want = self._reference(p, support, grown, ops)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_width_10_allocates_no_full_size_embedded_copy(self):
        # Besides its output, the last step of a brickwork entry holds a
        # few width-8 tiles: embedding first would add a full 16 MiB.
        rng = np.random.default_rng(10)
        p = self._hermitian(8, rng)
        ops = [(haar_unitary(2, rng), [0, 1]), (haar_unitary(2, rng), [8, 9])]
        tracemalloc.start()
        try:
            out = _conjugate_hermitian(p, range(1, 9), range(10), ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == 16 << 20
        assert peak < 1.5 * out.nbytes


class TestConjugate:
    """One-operator layers of :func:`conjugate_layer`, ``u @ p @ dagger(u)``."""

    def test_hadamard_rotates_zero_projector(self):
        assert np.allclose(conjugate_layer(P0, [(H, [0])], 1), np.full((2, 2), 0.5))

    def test_round_trip(self):
        for u in small_unitaries(2):
            p = np.diag([1, 0, 1, 0]).astype(complex)
            there = conjugate_layer(p, [(u, [0, 1])], 2)
            back = conjugate_layer(there, [(dagger(u), [0, 1])], 2)
            assert np.allclose(back, p)

    def test_preserves_projections(self):
        for u in small_unitaries(2):
            p = np.diag([1, 1, 0, 0]).astype(complex)
            assert is_projection(conjugate_layer(p, [(u, [1, 0])], 2), 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            conjugate_layer(np.eye(4), [(np.eye(2), [0])], 1)


class TestPredicates:
    def test_identity_is_projection(self):
        assert is_projection(np.eye(4, dtype=complex))

    def test_rank_one_pair_projector(self):
        plus = np.full(2, 1 / np.sqrt(2))
        assert is_projection(np.outer(plus, plus))

    def test_hadamard_is_not_projection(self):
        assert not is_projection(H)


class TestMembershipResidual:
    def test_member_vector(self):
        r = membership_residual(np.diag([1, 0]), [1, 0])
        assert r == (0.0, 0.0, 0.0)

    def test_orthogonal_vector(self):
        r = membership_residual(np.diag([1, 0]), [0, 1])
        # E = -|1>, averaged norms over dimension 2.
        assert r.l1 == pytest.approx(0.5)
        assert r.l2 == pytest.approx(np.sqrt(0.5))
        assert r.linf == pytest.approx(1.0)

    def test_plus_projector_on_zero(self):
        plus = np.full(2, 1 / np.sqrt(2))
        r = membership_residual(np.outer(plus, plus), [1, 0])
        assert r.l1 == pytest.approx(0.5)
        assert r.l2 == pytest.approx(0.5)
        assert r.linf == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            membership_residual(np.eye(4), [1, 0])


class TestIntegerPositions:
    """Qubit positions that are not integers raise, never truncate."""

    def test_embed(self):
        for op_support, target in (([1.7], [0, 1]), ([1], [0, 1.0]), ([True], [0, 1])):
            with pytest.raises(DomainError, match="must be an integer"):
                embed(X, op_support, target)
        numpy_ints = embed(X, [np.int64(1)], [0, np.int32(1)])
        assert np.array_equal(numpy_ints, embed(X, [1], [0, 1]))

    def test_apply_local(self):
        with pytest.raises(DomainError, match="must be an integer"):
            apply_local(X, zero_state(2), [0.9], 2)

    def test_conjugate_layer(self):
        with pytest.raises(DomainError, match="must be an integer"):
            conjugate_layer(np.eye(4, dtype=complex), [(X, [0.5])], 2)

    def test_conjugate_hermitian(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        with pytest.raises(DomainError, match="must be an integer"):
            _conjugate_hermitian(P0, [0], [0, 1], [(cnot, [0, 1.0])])


class TestLocalPrimitives:
    """Contraction-based products against the dense embed reference."""

    def _random_state(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        return v / np.linalg.norm(v)

    def test_apply_local_matches_embed(self):
        n = 4
        v = self._random_state(n, 7)
        for u in small_unitaries(2):
            dense = embed(u, [1, 3], list(range(n))) @ v
            assert np.allclose(apply_local(u, v, [1, 3], n), dense)

    def test_apply_local_unsorted_positions(self):
        # Listing positions in reversed order swaps the operator's axes.
        n = 3
        v = self._random_state(n, 8)
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
            dtype=complex,
        )
        swapped = apply_local(cnot, v, [2, 0], n)
        # Control on qubit 2, target on qubit 0: build the same dense
        # operator by permuting basis axes explicitly.
        perm = cnot.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
        dense = embed(perm, [0, 2], [0, 1, 2]) @ v
        assert np.allclose(swapped, dense)

    def _random_matrix(self, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))

    def test_mul_local_left_matches_embed(self):
        # ``embed(u) @ mat`` is ``apply_local`` on the matrix's rows.
        n = 3
        full = [0, 1, 2]
        mat = self._random_matrix(9)
        for u, pos in [(small_unitaries(1)[0], [1]), (small_unitaries(2)[0], [0, 2])]:
            left = embed(u, pos, full) @ mat
            assert np.allclose(apply_local(u, mat, pos, n), left)
        wide = mat[:, :3]
        assert np.allclose(apply_local(X, wide, [2], n), embed(X, [2], full) @ wide)

    def test_mul_local_right_matches_embed(self):
        # ``mat @ embed(u)`` is ``apply_local`` through transposes.
        n = 3
        full = [0, 1, 2]
        mat = self._random_matrix(10)
        for u, pos in [(small_unitaries(1)[0], [1]), (small_unitaries(2)[0], [0, 2])]:
            right = mat @ embed(u, pos, full)
            assert np.allclose(apply_local(u.T, mat.T, pos, n).T, right)

    def test_conjugate_layer_matches_dense(self):
        n = 4
        full = list(range(n))
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        for u, v in zip(small_unitaries(2), small_unitaries(1)):
            # Non-adjacent with an idle qubit (permuted), then positions
            # 0, 1, 2, 3 in order (not permuted).
            for layer in ([(u, [0, 3]), (v, [1])], [(v, [0]), (u, [1, 2]), (v, [3])]):
                ue = np.eye(16)
                for op, pos in layer:
                    ue = embed(op, pos, full) @ ue
                dense = ue @ mat @ dagger(ue)
                assert np.allclose(conjugate_layer(mat, layer, n), dense)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 2**32 - 1))
    def test_hermitian_part_bit_identical(self, n, seed):
        # With no ops, a result of at most ``_TILE`` amplitudes is one
        # diagonal tile: the Hermitian part of ``p`` itself.
        rng = np.random.default_rng(seed)
        dim = 1 << n
        p = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        # Zero imaginary parts: where ``x == y``, ``x - y`` is +0 but
        # ``-(y - x)`` is -0, so the lower triangle must be the same sums
        # as in ``p + dagger(p)``, not conjugates of the upper one.
        p.imag[rng.random((dim, dim)) < 0.5] = 0.0
        before = p.copy()
        want = (p + dagger(p)) / 2
        got = _conjugate_hermitian(p, range(n), range(n), [])
        assert np.array_equal(p.view(np.uint64), before.view(np.uint64))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_conjugate_layer_rejects_overlapping_ops(self):
        with pytest.raises(DomainError, match="disjoint"):
            conjugate_layer(np.eye(8), [(X, [1]), (np.eye(4), [0, 1])], 3)
        with pytest.raises(DomainError):
            conjugate_layer(np.eye(4), [(X, [2])], 2)

    def test_position_validation(self):
        v = self._random_state(2, 12)
        with pytest.raises(DomainError):
            apply_local(X, v, [0, 1], 2)
        with pytest.raises(DomainError):
            apply_local(np.eye(4), v, [0, 0], 2)
        with pytest.raises(DomainError):
            apply_local(X, v, [5], 2)
        with pytest.raises(DomainError):
            apply_local(X, v.reshape(2, 2), [0], 2)
        with pytest.raises(DomainError):
            apply_local(X, np.ones((4, 2, 2)), [0], 2)
