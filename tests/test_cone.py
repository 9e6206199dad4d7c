"""Differential tests of the cone-state kernel against the dense path.

The weak, strong and static checks compute residuals on a light cone's
state vector.  These tests hold them to the dense projections they
replace (within 1e-12) and their verdicts to the brute-force oracle, on
circuits with 3-qubit gates, unsorted and non-adjacent gate qubits,
empty layers, idle qubits and no layers at all.  On translation-invariant
layouts, where many cones share a shape and are simulated as one batch,
and on circuits built to repeat gates (in part, reversed, across idle
layers and across the seam of a composite), they are also held to a
loop that simulates one cone at a time without fusing, with the batch
bound at its default and small enough to split batches into chunks.
Cones that share a chain of steps share one simulation of ``A†``, and
gates that repeat the last gate on their qubits are fused once, before
the walk; call counts, chunk contents and the views the walker sees pin
both, and capacity errors of fused composites are held to the plain
walk of the explicit composite.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shallowcheck.assertion as assertion
import shallowcheck.cone as cone
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
    haar_unitary,
    initial_state_residuals,
    membership_residual,
    random_circuit,
    simulate,
    verify_static,
    zero_state,
)
from shallowcheck.circuit import _PAIR_GATE, _inverse, _tabled
from shallowcheck.cone import ZERO_PROJECTOR, walk_light_cones
from shallowcheck.config import DEFAULT_SUPPORT_CAP, EQUIV_THRESHOLD, SUPPORT_CAP_ENV
from shallowcheck.linalg import ErrorTriple, apply_layer, apply_local, embed, residual_norms
from support import dagger, equal_up_to_phase, full_unitary, views, walk

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
    # The static check walks the inverse views of V†, which hold V's
    # gates in V's order, so the two checks must agree bit for bit.
    c0, c1 = pair
    v = concat(c0, adjoint(c1))
    zero = np.diag([1.0, 0.0]).astype(complex)
    claims = [LocalProjection((t,), zero) for t in range(v.n_qubits)]
    weak = check_weak(c0, c1).residuals
    static = verify_static(adjoint(v), claims)
    assert [r.support for r in weak] == [s.support for s in static]
    assert [(r.l1, r.l2, r.linf) for r in weak] == [tuple(s.residual) for s in static]


def _kernel_report(mode, composite):
    """The report of a check whose composite is ``composite``, from the cone
    kernel walking it as given, without ``seconds``."""
    zeros = [(ZERO_PROJECTOR, (t,)) for t in range(composite.n_qubits)]
    cones = cone.cone_residuals(
        views(composite), zeros, "support of qubit {}", DEFAULT_SUPPORT_CAP
    )
    max_linf = max(t.linf for _, t in cones)
    return {
        "mode": mode,
        "verdict": "equivalent" if max_linf <= EQUIV_THRESHOLD else "inequivalent",
        "threshold": EQUIV_THRESHOLD,
        "max_linf": max_linf,
        "residuals": [
            {"support": list(s), "l1": t.l1, "l2": t.l2, "linf": t.linf} for s, t in cones
        ],
        "max_support": max(len(s) for s, _ in cones),
        "warning": EQUIV_THRESHOLD / 10 <= max_linf <= EQUIV_THRESHOLD * 10,
    }


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_checks_equal_the_kernel_on_explicit_composites(pair):
    # The checks walk views of their inputs; the composites built with
    # the public concat, adjoint and choi_extend must give the same
    # report, bit for bit: 1- to 3-qubit gates, layouts that are not
    # brickwork, unequal depths, empty layers and n = 1 among them.
    c0, c1 = pair
    composites = [
        (check_weak, "weak", concat(c0, adjoint(c1))),
        (check_strong, "strong", concat(choi_extend(c0), adjoint(choi_extend(c1)))),
    ]
    for check, mode, composite in composites:
        got = check(c0, c1).to_json()
        del got["seconds"]
        want = _kernel_report(mode, composite)
        assert got == want
        assert [float.hex(r["linf"]) for r in got["residuals"]] == [
            float.hex(r["linf"]) for r in want["residuals"]
        ]


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


@st.composite
def layouts(draw, max_qubits=12, max_depth=2):
    """Brickwork or paired ladders of Haar two-qubit gates.

    Interior cones of these layouts share a shape, so most batches of
    :func:`~shallowcheck.cone.cone_residuals` hold several cones.  Paired
    ladders, whose cones stay two qubits wide, get one more layer.
    """
    n = draw(st.integers(2, max_qubits))
    ladder = draw(st.booleans())
    depth = draw(st.integers(1, max_depth + ladder))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_circuit():
        return Circuit(n, tuple(
            Layer(tuple(
                Gate((q, q + 1), haar_unitary(2, rng))
                for q in range(0 if ladder else layer % 2, n - 1, 2)
            ))
            for layer in range(depth)
        ))

    c0 = draw_circuit()
    kind = draw(st.sampled_from(("same", "phase", "other")))
    if kind == "same":
        return c0, c0
    if kind == "phase":
        return c0, _after_phase_layer(c0, draw(st.floats(0.5, 2 * np.pi - 0.5)))
    return c0, draw_circuit()


@st.composite
def repeating(draw, max_qubits=5, max_depth=6, n=None):
    """Circuits whose gates often repeat the last gate on their qubits.

    Each layer keeps a drawn subset of the gates of the last layer that
    had gates, on the same qubit tuples with fresh Haar matrices, so
    layers are partly repeated; a kept gate of 2 or 3 qubits sometimes
    has its qubits reversed, which must not fuse.  The other qubits get
    fresh 1- to 3-qubit gates or stay idle, and some layers are empty,
    so idle layers fall between repeats.
    """
    if n is None:
        n = draw(st.integers(1, max_qubits))
    depth = draw(st.integers(1, max_depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    previous: list = []
    for _ in range(depth):
        if layers and rng.random() < 0.2:
            layers.append(Layer(()))
            continue
        gates = [q for q in previous if rng.random() < 0.7]
        gates = [q[::-1] if len(q) > 1 and rng.random() < 0.2 else q for q in gates]
        used = {q for g in gates for q in g}
        free = [int(q) for q in rng.permutation(n) if q not in used]
        while free:
            k = int(rng.integers(0, 4))
            if k == 0:
                free.pop()
                continue
            gates.append(tuple(free[:k]))
            free = free[k:]
        layers.append(Layer(tuple(Gate(g, haar_unitary(len(g), rng)) for g in gates)))
        previous = gates
    return Circuit(n, tuple(layers))


@st.composite
def repeating_pairs(draw, max_qubits=5, max_depth=6):
    """``(c0, c1)`` of :func:`repeating` circuits: equal, equal on
    ``|0...0>`` only, or unrelated.  Equal ones repeat their gates across
    the seam of ``c0`` and ``c1†`` too."""
    c0 = draw(repeating(max_qubits, max_depth))
    kind = draw(st.sampled_from(("same", "phase", "other")))
    if kind == "same":
        return c0, c0
    if kind == "phase":
        return c0, _after_phase_layer(c0, draw(st.floats(0.5, 2 * np.pi - 0.5)))
    return c0, draw(repeating(max_depth=max_depth, n=c0.n_qubits))


def one_cone_at_a_time(c, projections, backward=False):
    """The residuals :func:`~shallowcheck.cone.cone_residuals` batches, cone by cone."""
    cones = walk(c, [s for _, s in projections], "cone {}", DEFAULT_SUPPORT_CAP, backward)
    out = []
    for (projector, start), steps in zip(projections, cones):
        support = steps[-1][2] if steps else tuple(start)
        axis = {q: i for i, q in enumerate(support)}
        gates = [[(g.matrix, [axis[q] for q in g.qubits]) for g in t] for _, t, _ in steps]
        undo = [[(dagger(u), axes) for u, axes in ops] for ops in gates]
        a, a_dag = (undo, gates) if backward else (gates, undo)
        state = zero_state(len(support)).reshape((2,) * len(support))
        for ops in a_dag[::-1] + [[(projector, [axis[q] for q in start])]] + a:
            state = apply_layer(state, ops)
        e = np.abs(state.reshape(-1) - zero_state(len(support)))
        out.append((support, ErrorTriple(
            float(np.sum(e) / e.size), float(np.sqrt(np.sum(e**2) / e.size)), float(np.max(e))
        )))
    return out


def _assert_same_cones(got, want):
    """Same supports in the same order, same verdicts, residuals within TOL."""
    assert [s for s, _ in got] == [s for s, _ in want]
    for (_, g), (_, w) in zip(got, want):
        assert max(abs(a - b) for a, b in zip(g, w)) <= TOL
        assert (g.linf <= EQUIV_THRESHOLD) == (w.linf <= EQUIV_THRESHOLD)


#: The default batch bound, and one small enough to split the batches of
#: these layouts into chunks of a few cones.
BOUNDS = pytest.mark.parametrize("bound", [cone._BATCH_AMPLITUDES, 32], ids=["default", "small"])


def _weak_cones(report):
    return [(r.support, ErrorTriple(r.l1, r.l2, r.linf)) for r in report.residuals]


@BOUNDS
@settings(max_examples=40, deadline=None)
@given(st.one_of(layouts(), repeating_pairs()))
def test_batched_weak_cones_match_one_at_a_time_and_dense(bound, pair):
    c0, c1 = pair
    composite = concat(c0, adjoint(c1))
    zeros = [(ZERO_PROJECTOR, (t,)) for t in range(composite.n_qubits)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "_BATCH_AMPLITUDES", bound)
        report = check_weak(c0, c1)
    _assert_same_cones(_weak_cones(report), one_cone_at_a_time(composite, zeros))
    _assert_residuals_match(report, compute_description(composite))


@BOUNDS
@settings(max_examples=25, deadline=None)
@given(st.one_of(layouts(max_qubits=8, max_depth=1), repeating_pairs(max_qubits=3, max_depth=4)))
def test_batched_strong_cones_match_one_at_a_time_and_dense(bound, pair):
    c0, c1 = pair
    composite = concat(choi_extend(c0), adjoint(choi_extend(c1)))
    zeros = [(ZERO_PROJECTOR, (t,)) for t in range(composite.n_qubits)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "_BATCH_AMPLITUDES", bound)
        report = check_strong(c0, c1)
    _assert_same_cones(_weak_cones(report), one_cone_at_a_time(composite, zeros))
    _assert_residuals_match(report, compute_description(composite))


@BOUNDS
@settings(max_examples=40, deadline=None)
@given(st.one_of(layouts(), repeating_pairs()))
def test_batched_static_cones_match_one_at_a_time_and_dense(bound, pair):
    c, other = pair
    claims = compute_description(other).projections
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "_BATCH_AMPLITUDES", bound)
        checks = verify_static(c, claims)
    got = [(check.support, check.residual) for check in checks]
    want = one_cone_at_a_time(c, [(e.matrix, e.support) for e in claims], backward=True)
    _assert_same_cones(got, want)
    assert [check.holds for check in checks] == [w.linf <= EQUIV_THRESHOLD for _, w in want]
    for (support, residual), entry in zip(got, claims):
        dense_support, dense_residual = dense_static(c, entry)
        assert support == dense_support
        assert max(abs(a - b) for a, b in zip(residual, dense_residual)) <= TOL


def _at_three_bounds(check):
    """``check()``'s cones, as supports and residual bits, at three batch
    bounds: the default; the most amplitudes any chain's members hold,
    so every chain runs whole and the widest alone in its chunk; and 1,
    so every member runs alone and ``A†`` reruns for each member of a
    chain."""
    walked = []

    def recording(layers, starts, what, cap):
        chains = walk_light_cones(layers, starts, what, cap)
        walked.extend(
            len(members) << len(steps[-1][2] if steps else starts[members[0]])
            for steps, members in chains
        )
        return chains

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "walk_light_cones", recording)
        cones = [check()]
    for bound in (max(walked), 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cone, "_BATCH_AMPLITUDES", bound)
            cones.append(check())
    return [[(support, [float.hex(x) for x in triple]) for support, triple in c] for c in cones]


@settings(max_examples=30, deadline=None)
@given(st.one_of(layouts(), repeating_pairs()))
def test_weak_and_static_residuals_do_not_depend_on_chunking(pair):
    c, other = pair
    claims = compute_description(other).projections
    weak = _at_three_bounds(lambda: _weak_cones(check_weak(c, other)))
    assert weak[0] == weak[1] == weak[2]
    static = _at_three_bounds(
        lambda: [(check.support, check.residual) for check in verify_static(c, claims)]
    )
    assert static[0] == static[1] == static[2]


@settings(max_examples=20, deadline=None)
@given(st.one_of(layouts(max_qubits=8, max_depth=1), repeating_pairs(max_qubits=3, max_depth=4)))
def test_strong_residuals_do_not_depend_on_chunking(pair):
    # Choi twins share a chain, so at a bound of 1 each twin runs alone.
    strong = _at_three_bounds(lambda: _weak_cones(check_strong(*pair)))
    assert strong[0] == strong[1] == strong[2]


@pytest.mark.parametrize("bound", [8, 16])
def test_batches_stay_within_the_bound(monkeypatch, bound):
    # Qubits 0-11 form a paired ladder, whose two-qubit cones batch six
    # at a time unbounded; qubits 12-19 a brickwork, whose cones reach 4
    # to 8 qubits.  The bound is small enough that the wide cones meet or
    # pass it, so nothing large is allocated.  Each call's state holds
    # its chains times its member axis times 2^w amplitudes.
    shapes = []

    def recording(tensor, ops):
        shapes.append(tensor.shape)
        return apply_layer(tensor, ops)

    rng = np.random.default_rng(1)
    c = Circuit(20, tuple(
        Layer(tuple(
            Gate((q, q + 1), haar_unitary(2, rng))
            for q in [*range(0, 12, 2), *range(12 + layer % 2, 19, 2)]
        ))
        for layer in range(3)
    ))
    monkeypatch.setattr(cone, "apply_layer", recording)
    monkeypatch.setattr(cone, "_BATCH_AMPLITUDES", bound)
    widths = {len(r.support) for r in check_weak(c, c).residuals}
    assert min(widths) == 2 and 1 << max(widths) > bound
    assert max(chains * members for chains, members, *_ in shapes) == bound // 4
    for chains, members, *qubits in shapes:
        assert qubits == [2] * len(qubits)
        if 1 << len(qubits) >= bound:
            assert chains * members == 1
        else:
            assert (chains * members) << len(qubits) <= bound


def test_a_wide_cone_keeps_at_most_three_states_live():
    # A cone of 2^15 amplitudes: apply_layer holds its input, a
    # transposed copy and its output, so three states at most.  The
    # chain's state copied out to its members before Q must not add a
    # fourth.
    c = random_circuit(16, 8, seed=1)
    layers, projections = views(c), [(ZERO_PROJECTOR, (7,))]
    cone.cone_residuals(layers, projections, "cone {}", 16)
    tracemalloc.start()
    try:
        [(support, _)] = cone.cone_residuals(layers, projections, "cone {}", 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(support) == 15
    assert peak < 3.5 * (16 << len(support))


def test_weak_capacity_error_names_qubit_and_layer(monkeypatch):
    monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
    c = random_circuit(8, 3, seed=1)
    with pytest.raises(CapacityError) as exc:
        check_weak(c, c)
    assert "qubit 2" in str(exc.value)
    assert "layer 1" in str(exc.value)
    assert exc.value.size == 4
    assert exc.value.cap == 3


def _cap_inputs():
    """Three pairs: unequal brickwork depths, 3-qubit gates in unsorted
    order around an empty layer, and one qubit."""
    rng = np.random.default_rng(11)
    mixed = Circuit(5, [
        Layer([Gate((3, 0, 1), haar_unitary(3, rng)), Gate((4,), haar_unitary(1, rng))]),
        Layer([]),
        Layer([Gate((4, 2), haar_unitary(2, rng)), Gate((1, 0), haar_unitary(2, rng))]),
    ])
    other = Circuit(5, [Layer([Gate((2, 3), haar_unitary(2, rng))])])
    one = Circuit(1, [Layer([Gate((0,), haar_unitary(1, rng))])])
    return [
        (random_circuit(6, 3, seed=1), random_circuit(6, 2, seed=2)),
        (mixed, other),
        (one, Circuit(1)),
    ]


@pytest.mark.parametrize("which", range(3))
def test_capacity_errors_name_the_composite_qubit_and_layer(monkeypatch, which):
    # For every cap up to the composite's width, the checks fail exactly
    # when the plain walk of the explicit composite does, with its
    # message: the qubit in composite numbering and the composite's
    # layer, pair layer 0 first on the strong check, c1† after c0.
    c0, c1 = _cap_inputs()[which]
    composites = [
        (check_weak, concat(c0, adjoint(c1))),
        (check_strong, concat(choi_extend(c0), adjoint(choi_extend(c1)))),
    ]
    for check, composite in composites:
        starts = [(t,) for t in range(composite.n_qubits)]
        for cap in range(1, composite.n_qubits + 1):
            monkeypatch.setenv(SUPPORT_CAP_ENV, str(cap))
            try:
                unmemoised_walk(composite, starts, "support of qubit {}", cap)
            except CapacityError as want:
                with pytest.raises(CapacityError) as exc:
                    check(c0, c1)
                assert (str(exc.value), exc.value.size, exc.value.cap) == (
                    str(want), want.size, want.cap
                )
            else:
                check(c0, c1)


def test_capacity_error_messages_of_the_composites(monkeypatch):
    (c0, c1), (mixed, other), (one, empty) = _cap_inputs()
    monkeypatch.setenv(SUPPORT_CAP_ENV, "2")
    with pytest.raises(CapacityError) as weak:
        check_weak(mixed, other)
    with pytest.raises(CapacityError) as strong:
        check_strong(c0, c1)
    assert str(weak.value) == (
        "support of qubit 0 would reach 3 qubit(s) at layer 0, exceeding the support cap of 2"
    )
    assert str(strong.value) == (
        "support of qubit 0 would reach 3 qubit(s) at layer 1, exceeding the support cap of 2"
    )
    monkeypatch.setenv(SUPPORT_CAP_ENV, "1")
    with pytest.raises(CapacityError) as single:
        check_strong(one, empty)
    assert str(single.value) == (
        "support of qubit 0 would reach 2 qubit(s) at layer 0, exceeding the support cap of 1"
    )
    check_weak(one, empty)


def unmemoised_walk(c, starts, what, cap, backward=False):
    """The walk of :func:`~shallowcheck.cone.walk_light_cones`, each cone grown on its own.

    Every cone scans the whole layer for the gates it overlaps at every
    step, with no step shared between cones.
    """
    supports = [tuple(s) for s in starts]
    steps = [[] for _ in supports]
    for layer_index in range(c.depth - 1, -1, -1) if backward else range(c.depth):
        for i, current in enumerate(supports):
            touched = [g for g in c.layers[layer_index].gates if set(g.qubits) & set(current)]
            if not touched:
                continue
            grown = tuple(sorted(set(current).union(*(g.qubits for g in touched))))
            if len(grown) > cap:
                raise CapacityError(
                    f"{what.format(i)} would reach {len(grown)} qubit(s) at "
                    f"layer {layer_index}, exceeding the support cap of {cap}",
                    size=len(grown),
                    cap=cap,
                )
            supports[i] = grown
            steps[i].append((layer_index, sorted(touched, key=lambda g: min(g.qubits)), grown))
    return steps


def _walked_inputs(c, doubled, data):
    """A circuit and the starts of its cones for the walker's property tests.

    A doubled composite has Choi twins, cones of ``p`` and ``n + p``
    that share a support after the pair layer.  Starts are single
    qubits, or supports of a static check's claims, repeats among them.
    """
    if doubled:
        c = concat(choi_extend(c), adjoint(choi_extend(c)))
    starts = [(t,) for t in range(c.n_qubits)]
    if data.draw(st.booleans()):
        qubits = st.sets(st.integers(0, c.n_qubits - 1), min_size=1, max_size=3)
        starts = [tuple(sorted(s)) for s in data.draw(st.lists(qubits, min_size=1, max_size=8))]
    return c, starts


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=5), st.booleans(), st.booleans(), st.integers(1, 10), st.data())
def test_walker_matches_the_unmemoised_walk(c, doubled, backward, cap, data):
    c, starts = _walked_inputs(c, doubled, data)
    try:
        want = unmemoised_walk(c, starts, "cone {}", cap, backward)
    except CapacityError as error:
        with pytest.raises(CapacityError) as exc:
            walk(c, starts, "cone {}", cap, backward)
        assert (str(exc.value), exc.value.size, exc.value.cap) == (
            str(error), error.size, error.cap
        )
    else:
        # Gates compare by identity, so the same gates in the same order.
        assert walk(c, starts, "cone {}", cap, backward) == want


def test_walker_shares_the_step_of_a_shared_support():
    # Twins grow to one support at the pair layer, so they share every
    # step, the first one included: one chain per pair of twins.
    c = random_circuit(6, 2, seed=1)
    doubled = concat(choi_extend(c), adjoint(choi_extend(c)))
    chains = walk_light_cones(views(doubled), [(t,) for t in range(12)], "cone {}", 12)
    assert [members for _, members in chains] == [[p, 6 + p] for p in range(6)]


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=5), st.booleans(), st.booleans(), st.integers(1, 10), st.data())
def test_walker_chains_partition_the_starts_by_their_steps(c, doubled, backward, cap, data):
    # Each start is in one chain, and two starts with steps share one
    # exactly when their cones, grown on their own, take the same steps.
    c, starts = _walked_inputs(c, doubled, data)
    try:
        want = unmemoised_walk(c, starts, "cone {}", cap, backward)
    except CapacityError:
        return
    layers = _inverse(views(c)) if backward else views(c)
    chains = walk_light_cones(layers, starts, "cone {}", cap)
    members = [m for _, m in chains]
    assert sorted(i for m in members for i in m) == list(range(len(starts)))
    assert all(m == sorted(m) for m in members)
    assert [m[0] for m in members] == sorted(m[0] for m in members)
    chain_of = {i: k for k, m in enumerate(members) for i in m}
    for i in range(len(starts)):
        if not want[i]:
            assert members[chain_of[i]] == [i]
            continue
        for j in range(len(starts)):
            if want[j]:
                assert (chain_of[i] == chain_of[j]) == (want[i] == want[j])


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_overflowing_twins_name_the_lower_index_and_first_layer(backward, reverse):
    # Layers of the composite: 0 pairs (p, 4 + p), 1 gate (5, 6), 2 gate
    # (4, 7), 3 its dagger, 4 the dagger of (5, 6), 5 the pair daggers.
    # At cap 2 the cones of qubits 1, 2, 5 and 6, two pairs of twins,
    # overflow first: at layer 1 forward, at layer 4 on the inverse views.
    u, v = haar_unitary(2, seed=1), haar_unitary(2, seed=2)
    c = Circuit(4, [Layer([Gate((1, 2), u)]), Layer([Gate((0, 3), v)])])
    doubled = concat(choi_extend(c), adjoint(choi_extend(c)))
    qubits = list(range(8))[::-1] if reverse else list(range(8))
    starts = [(q,) for q in qubits]
    first = min(i for i, q in enumerate(qubits) if q in (1, 2, 5, 6))
    layers = _inverse(views(doubled)) if backward else views(doubled)
    with pytest.raises(CapacityError) as exc:
        walk_light_cones(layers, starts, "cone {}", 2)
    layer = 4 if backward else 1
    assert str(exc.value) == (
        f"cone {first} would reach 3 qubit(s) at layer {layer}, "
        "exceeding the support cap of 2"
    )
    assert (exc.value.size, exc.value.cap) == (3, 2)
    with pytest.raises(CapacityError) as want:
        unmemoised_walk(doubled, starts, "cone {}", 2, backward)
    assert str(exc.value) == str(want.value)


def test_strong_check_of_a_paired_ladder_batches_by_gate_layout(monkeypatch):
    # On the composite of two paired ladders, the cones of qubits 2k and
    # 6 + 2k (twins) have 4 qubits and the same gate axes, and so do the
    # cones of 2k + 1 and 6 + 2k + 1: two groups of n members, n / 2
    # chains each.  Each chain has 2 * depth + 2 steps: the pair layer,
    # then 2 * depth layers on the same pair of axes, which fuse into
    # one op, then the pair daggers, so 3 fused layers.  A† runs them on
    # one state per chain, Q is one call per member slot, one per twin,
    # and A runs on the chains with a member axis of 2.
    n, depth = 6, 2
    rng = np.random.default_rng(3)

    def ladder():
        return Circuit(n, [
            Layer([Gate((q, q + 1), haar_unitary(2, rng)) for q in range(0, n, 2)])
            for _ in range(depth)
        ])

    batches = []

    def recording(tensor, ops):
        batches.append(tensor.shape[:2])
        return apply_layer(tensor, ops)

    monkeypatch.setattr(cone, "apply_layer", recording)
    report = check_strong(ladder(), ladder())
    assert {len(r.support) for r in report.residuals} == {4}
    fused = 3
    assert len(batches) == 2 * (2 * fused + 2)
    # A's layers run on a group's n / 2 chains, each with both twins on
    # its member axis; A†'s and Q's on the n / 2 chain states.
    assert batches.count((n // 2, 2)) == 2 * fused
    assert batches.count((n // 2, 1)) == 2 * (fused + 2)


@settings(max_examples=40, deadline=None)
@given(st.one_of(layouts(), repeating_pairs()))
def test_weak_residuals_equal_static_residuals_of_the_inverse_on_layouts(pair):
    # Paired ladders and repeating circuits put runs of repeated gates
    # on one qubit tuple, which fuse: from the composite's gates, or from
    # the daggers of the inverse views, multiplied in the order A
    # applies them either way.
    c0, c1 = pair
    v = concat(c0, adjoint(c1))
    claims = [LocalProjection((t,), ZERO_PROJECTOR) for t in range(v.n_qubits)]
    weak = check_weak(c0, c1).residuals
    static = verify_static(adjoint(v), claims)
    assert [r.support for r in weak] == [s.support for s in static]
    assert [(r.l1, r.l2, r.linf) for r in weak] == [tuple(s.residual) for s in static]


def _paired_ladder(n, depth, rng):
    return Circuit(n, [
        Layer([Gate((q, q + 1), haar_unitary(2, rng)) for q in range(0, n - 1, 2)])
        for _ in range(depth)
    ])


def test_static_check_of_a_ladder_fuses_its_backward_walk(monkeypatch):
    # Every cone of a paired ladder is one pair, and its 4 layers fuse
    # into one op.  The cones of 2k and 2k + 1 share a chain: one group
    # of n claims in n / 2 chains, so A† is one call, Q one call per
    # qubit of the pair, and A one call on the chains with both claims
    # on the member axis.
    n, depth = 6, 4
    rng = np.random.default_rng(5)
    c = _paired_ladder(n, depth, rng)
    state = simulate(c)
    zeros = [LocalProjection((t,), ZERO_PROJECTOR) for t in range(n)]
    ones = [LocalProjection((t,), np.diag([0.0, 1.0]).astype(complex)) for t in range(n)]
    described = list(compute_description(_paired_ladder(n, depth, rng)).projections)
    calls = []

    def recording(tensor, ops):
        calls.append(tensor.shape[:2])
        return apply_layer(tensor, ops)

    monkeypatch.setattr(cone, "apply_layer", recording)
    checks = verify_static(c, zeros)
    assert calls == [(n // 2, 1)] * 3 + [(n // 2, 2)]
    checks += verify_static(c, ones + described)
    for check, entry in zip(checks, zeros + ones + described):
        support, residual = dense_static(c, entry)
        assert check.support == support
        assert max(abs(a - b) for a, b in zip(check.residual, residual)) <= TOL
        defect = apply_local(entry.matrix, state, list(entry.support), n) - state
        assert check.holds == (np.max(np.abs(defect)) <= EQUIV_THRESHOLD)


@pytest.mark.parametrize("bound", [16, 48])
@settings(max_examples=15, deadline=None)
@given(layouts(max_qubits=8, max_depth=1))
def test_chunks_of_the_strong_check_hold_whole_chains(bound, pair):
    # Every chain of the strong check is a pair of Choi twins.  At these
    # bounds a 4-qubit cone's chain fits in a call with both twins on
    # its member axis (48), or its twins run apart, one chain and one
    # member a call (16).  Each chunk is read from the shape of its last
    # A call, made just before its residuals are reduced.
    c0, c1 = pair
    composite = concat(choi_extend(c0), adjoint(choi_extend(c1)))
    zeros = [(ZERO_PROJECTOR, (t,)) for t in range(composite.n_qubits)]
    shapes = []
    chunks = []

    def applying(tensor, ops):
        shapes.append(tensor.shape)
        return apply_layer(tensor, ops)

    def reducing(e):
        chunks.append((shapes[-1], e.shape))
        return residual_norms(e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "_BATCH_AMPLITUDES", bound)
        mp.setattr(cone, "apply_layer", applying)
        mp.setattr(cone, "residual_norms", reducing)
        report = check_strong(c0, c1)
    _assert_same_cones(_weak_cones(report), one_cone_at_a_time(composite, zeros))
    assert sum(rows for _, (rows, _) in chunks) == composite.n_qubits
    for (chains, members, *qubits), rows in chunks:
        assert rows == (chains * members, 1 << len(qubits))
        if 2 << len(qubits) <= bound:
            assert members == 2
        else:
            assert (chains, members) == (1, 1)


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("qubits, calls", [
    ([(0, 1), (0, 1)], 3),
    ([(0, 1), (1, 2), (0, 1)], 7),
    ([(1, 0), (0, 1)], 5),
])
def test_only_layers_on_the_same_axes_fuse(backward, qubits, calls):
    # The cone of qubit 0 meets every layer, of c's views or of its
    # inverse views.  Layers fuse only when adjacent and listing their
    # gates' qubits in the same order; else A† and A make one call per
    # layer, with Q between them.
    rng = np.random.default_rng(7)
    n = 1 + max(q for g in qubits for q in g)
    c = Circuit(n, [Layer([Gate(g, haar_unitary(2, rng))]) for g in qubits])
    projections = [(ZERO_PROJECTOR, (0,))]
    layers = _inverse(views(c)) if backward else views(c)
    recorded = []

    def recording(tensor, ops):
        recorded.append(ops)
        return apply_layer(tensor, ops)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "apply_layer", recording)
        got = cone.cone_residuals(layers, projections, "cone {}", DEFAULT_SUPPORT_CAP)
    assert len(recorded) == calls
    _assert_same_cones(got, one_cone_at_a_time(c, projections, backward))


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
    original = equivalence._tabled

    def counting(c, *args, **kwargs):
        calls.append(c)
        return original(c, *args, **kwargs)

    monkeypatch.setattr(equivalence, "_tabled", counting)
    c0, c1 = random_circuit(6, 2, seed=1), random_circuit(6, 2, seed=2)
    check_strong(c0, c1)
    assert calls == [c0, c1]


def _blocked_ladder(n, rng):
    """Two layers of gates on the pairs (0, 1), (2, 3), ..., two on (1, 2),
    (3, 4), ..., then two more on the first pairs: each second layer
    fuses into the first, and cones grow only at layers 0, 2 and 4."""
    return Circuit(n, [
        Layer([Gate((q, q + 1), haar_unitary(2, rng)) for q in range(start, n - 1, 2)])
        for start in (0, 0, 1, 1, 0, 0)
    ])


@pytest.mark.parametrize("n", [4, 5])
def test_capacity_errors_of_fused_composites_name_the_original_layer(monkeypatch, n):
    # Fusion drops views, so a fused walk's positions are not the
    # composite's layers; at every cap the message must still be the one
    # the plain walk of the explicit composite gives, weak and strong
    # forward, static backward over the inverse views.
    rng = np.random.default_rng(13)
    c0, c1 = _blocked_ladder(n, rng), _blocked_ladder(n, rng)
    claims = [LocalProjection((t,), ZERO_PROJECTOR) for t in range(n)]
    checks = [
        (lambda: check_weak(c0, c1), concat(c0, adjoint(c1)), "support of qubit {}", False),
        (lambda: check_strong(c0, c1), concat(choi_extend(c0), adjoint(choi_extend(c1))),
         "support of qubit {}", False),
        (lambda: verify_static(c0, claims), c0, "assertion {}: support", True),
    ]
    for check, composite, what, backward in checks:
        layers = _inverse(views(composite)) if backward else views(composite)
        assert len(cone._fused(layers)) < composite.depth
        starts = [(t,) for t in range(composite.n_qubits)]
        failed = 0
        for cap in range(1, composite.n_qubits + 1):
            monkeypatch.setenv(SUPPORT_CAP_ENV, str(cap))
            try:
                unmemoised_walk(composite, starts, what, cap, backward)
            except CapacityError as want:
                failed += 1
                with pytest.raises(CapacityError) as exc:
                    check()
                assert (str(exc.value), exc.value.size, exc.value.cap) == (
                    str(want), want.size, want.cap
                )
            else:
                check()
        # Cones overflow at more than one layer as the cap rises.
        assert failed > 1


def test_fusion_runs_once_before_the_walk(monkeypatch):
    # The strong composite of two paired ladders is the pair layer, 2 + 3
    # layers on the pairs (n + 2k, n + 2k + 1), then the pair daggers:
    # the walker sees 3 views, the middle one fused.  Nothing repeats in
    # a brickwork, so a static check walks the inverse views of the very
    # views it tabled, over one daggered table.
    composites = []
    walked = []
    original_residuals = equivalence.cone_residuals
    original = cone.walk_light_cones

    def spying_residuals(layers, *args):
        composites.append(layers)
        return original_residuals(layers, *args)

    def spying(layers, *args):
        walked.append(layers)
        return original(layers, *args)

    monkeypatch.setattr(equivalence, "cone_residuals", spying_residuals)
    monkeypatch.setattr(cone, "walk_light_cones", spying)
    n = 6
    rng = np.random.default_rng(17)
    check_strong(_paired_ladder(n, 2, rng), _paired_ladder(n, 3, rng))
    [composite] = composites
    assert [view.layer for view in composite] == list(range(2 + 2 + 3))
    [(pair, fused, closing)] = walked
    assert pair.qubits == closing.qubits == [(p, n + p) for p in range(n)]
    assert (pair.layer, fused.layer, closing.layer) == (0, 1, 6)
    assert np.array_equal(pair.stacks[4][0], _PAIR_GATE)
    assert np.array_equal(closing.stacks[4][0], np.conj(_PAIR_GATE).T)
    assert fused.qubits == [(n + q, n + q + 1) for q in range(0, n, 2)]
    tabled = []
    original_tabled = assertion._tabled

    def recording(c, *args):
        out = original_tabled(c, *args)
        tabled.append(out[0])
        return out

    monkeypatch.setattr(assertion, "_tabled", recording)
    c = random_circuit(8, 4, seed=3)
    verify_static(c, compute_description(random_circuit(8, 4, seed=4)))
    [own] = tabled
    assert len(walked[1]) == len(own) == 4
    assert all(
        seen.qubits is mine.qubits and seen.layer == mine.layer
        for seen, mine in zip(walked[1], own[::-1])
    )
    assert all(seen.stacks is walked[1][0].stacks for seen in walked[1])


def test_inverse_views_share_one_daggered_table():
    # Each table is daggered once, its views reversed and numbered as
    # before, and the inverse of the inverse holds the same bits.
    layers, _ = _tabled(random_circuit(7, 5, seed=2), 3)
    inverse = _inverse(layers)
    assert all(view.stacks is inverse[0].stacks for view in inverse)
    assert inverse[0].stacks is not layers[0].stacks
    assert [view.layer for view in inverse] == [4, 3, 2, 1, 0]
    for view, back in zip(layers[::-1], inverse):
        assert back.qubits is view.qubits and back.rows is view.rows
    for dim, stack in layers[0].stacks.items():
        assert np.array_equal(inverse[0].stacks[dim], np.conj(stack).mT)
        assert inverse[0].stacks[dim].flags.c_contiguous
    twice = _inverse(inverse)
    assert [view.layer for view in twice] == [0, 1, 2, 3, 4]
    for dim, stack in layers[0].stacks.items():
        assert twice[0].stacks[dim].tobytes() == stack.tobytes()
