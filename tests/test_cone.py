"""Differential tests of the cone-state kernel against the dense path.

The weak, strong and static checks compute residuals on a light cone's
state vector.  These tests hold them to the dense projections they
replace (within 1e-12) and their verdicts to the brute-force oracle, on
circuits with 3-qubit gates, unsorted and non-adjacent gate qubits,
empty layers, idle qubits and no layers at all.  On translation-invariant
layouts, where many cones share a shape and are simulated as one batch,
they are also held to a loop that simulates one cone at a time, with the
batch bound at its default and small enough to split batches into chunks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from shallowcheck.cone import ZERO_PROJECTOR, walk_light_cones
from shallowcheck.config import DEFAULT_SUPPORT_CAP, EQUIV_THRESHOLD, SUPPORT_CAP_ENV
from shallowcheck.linalg import ErrorTriple, apply_layer, apply_local, embed
from support import dagger, equal_up_to_phase, full_unitary

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


def one_cone_at_a_time(c, projections, backward=False):
    """The residuals :func:`~shallowcheck.cone.cone_residuals` batches, cone by cone."""
    cones = walk_light_cones(
        c, [s for _, s in projections], "cone {}", DEFAULT_SUPPORT_CAP, backward
    )
    out = []
    for (projector, start), steps in zip(projections, cones):
        support = steps[-1][1] if steps else tuple(start)
        axis = {q: i for i, q in enumerate(support)}
        gates = [[(g.matrix, [axis[q] for q in g.qubits]) for g in t] for t, _ in steps]
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
@settings(max_examples=25, deadline=None)
@given(layouts())
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
@settings(max_examples=15, deadline=None)
@given(layouts(max_qubits=8, max_depth=1))
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
@settings(max_examples=25, deadline=None)
@given(layouts())
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


@pytest.mark.parametrize("bound", [8, 16])
def test_batches_stay_within_the_bound(monkeypatch, bound):
    # Qubits 0-11 form a paired ladder, whose two-qubit cones batch six
    # at a time unbounded; qubits 12-19 a brickwork, whose cones reach 4
    # to 8 qubits.  The bound is small enough that the wide cones meet or
    # pass it, so nothing large is allocated.
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
    assert max(batch for batch, *_ in shapes) == bound // 4
    for batch, *qubits in shapes:
        assert qubits == [2] * len(qubits)
        if 1 << len(qubits) >= bound:
            assert batch == 1
        else:
            assert batch << len(qubits) <= bound


def test_weak_capacity_error_names_qubit_and_layer(monkeypatch):
    monkeypatch.setenv(SUPPORT_CAP_ENV, "3")
    c = random_circuit(8, 3, seed=1)
    with pytest.raises(CapacityError) as exc:
        check_weak(c, c)
    assert "qubit 2" in str(exc.value)
    assert "layer 1" in str(exc.value)
    assert exc.value.size == 4
    assert exc.value.cap == 3


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
            steps[i].append((sorted(touched, key=lambda g: min(g.qubits)), grown))
    return steps


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=5), st.booleans(), st.booleans(), st.integers(1, 10), st.data())
def test_walker_matches_the_unmemoised_walk(c, doubled, backward, cap, data):
    # A doubled composite has Choi twins, cones of ``p`` and ``n + p``
    # that share a support after the pair layer.  Starts are single
    # qubits, or supports of a static check's claims, repeats among them.
    if doubled:
        c = concat(choi_extend(c), adjoint(choi_extend(c)))
    starts = [(t,) for t in range(c.n_qubits)]
    if data.draw(st.booleans()):
        qubits = st.sets(st.integers(0, c.n_qubits - 1), min_size=1, max_size=3)
        starts = [tuple(sorted(s)) for s in data.draw(st.lists(qubits, min_size=1, max_size=8))]
    try:
        want = unmemoised_walk(c, starts, "cone {}", cap, backward)
    except CapacityError as error:
        with pytest.raises(CapacityError) as exc:
            walk_light_cones(c, starts, "cone {}", cap, backward)
        assert (str(exc.value), exc.value.size, exc.value.cap) == (
            str(error), error.size, error.cap
        )
    else:
        # Gates compare by identity, so the same gates in the same order.
        assert walk_light_cones(c, starts, "cone {}", cap, backward) == want


def test_walker_shares_the_step_of_a_shared_support():
    # Twins grow to one support at the pair layer, so they share every
    # step, the first one included, and their whole list of steps.
    c = random_circuit(6, 2, seed=1)
    doubled = concat(choi_extend(c), adjoint(choi_extend(c)))
    cones = walk_light_cones(doubled, [(t,) for t in range(12)], "cone {}", 12)
    for p in range(6):
        assert cones[p][0] is cones[6 + p][0]
        assert cones[p] is cones[6 + p]


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("reverse", [False, True])
def test_overflowing_twins_name_the_lower_index_and_first_layer(backward, reverse):
    # Layers of the composite: 0 pairs (p, 4 + p), 1 gate (5, 6), 2 gate
    # (4, 7), 3 its dagger, 4 the dagger of (5, 6), 5 the pair daggers.
    # At cap 2 the cones of qubits 1, 2, 5 and 6, two pairs of twins,
    # overflow first: at layer 1 forward, at layer 4 backward.
    u, v = haar_unitary(2, seed=1), haar_unitary(2, seed=2)
    c = Circuit(4, [Layer([Gate((1, 2), u)]), Layer([Gate((0, 3), v)])])
    doubled = concat(choi_extend(c), adjoint(choi_extend(c)))
    qubits = list(range(8))[::-1] if reverse else list(range(8))
    starts = [(q,) for q in qubits]
    first = min(i for i, q in enumerate(qubits) if q in (1, 2, 5, 6))
    with pytest.raises(CapacityError) as exc:
        walk_light_cones(doubled, starts, "cone {}", 2, backward)
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
    # cones of 2k + 1 and 6 + 2k + 1: two groups.  Each chain has
    # 2 * depth + 2 steps, each one call for A† and one for A, and Q is
    # one call per run of equal axes, one run per twin.
    n, depth = 6, 2
    rng = np.random.default_rng(3)

    def ladder():
        return Circuit(n, [
            Layer([Gate((q, q + 1), haar_unitary(2, rng)) for q in range(0, n, 2)])
            for _ in range(depth)
        ])

    batches = []

    def recording(tensor, ops):
        batches.append(tensor.shape[0])
        return apply_layer(tensor, ops)

    monkeypatch.setattr(cone, "apply_layer", recording)
    report = check_strong(ladder(), ladder())
    assert {len(r.support) for r in report.residuals} == {4}
    steps = 2 * depth + 2
    assert len(batches) == 2 * (2 * steps + 2)
    # The layers of A† and A run on a whole group, Q on one twin's run.
    assert batches.count(n) == 2 * 2 * steps
    assert batches.count(n // 2) == 2 * 2


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
