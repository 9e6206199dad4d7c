"""The benchmark's input generator and reference checks."""

import dataclasses

import numpy as np
import pytest

import workloads


def _matrices(c):
    return [g.matrix for layer in c.layers for g in layer.gates]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    w = workloads.WORKLOADS[name]
    for index in range(w.cycle):
        a, b = w.make(7, index), w.make(7, index)
        assert a.kind == b.kind and a.qubits == b.qubits
    c0 = workloads.brickwork(6, 3, workloads.rng_for(7, 1))
    c1 = workloads.brickwork(6, 3, workloads.rng_for(7, 1))
    assert all(np.array_equal(x, y) for x, y in zip(_matrices(c0), _matrices(c1)))


def test_other_seed_or_index_gives_other_gates():
    base = _matrices(workloads.brickwork(6, 3, workloads.rng_for(7, 1)))
    for rng in (workloads.rng_for(8, 1), workloads.rng_for(7, 2), workloads.rng_for(7, 1, 1)):
        other = _matrices(workloads.brickwork(6, 3, rng))
        assert not any(np.allclose(x, y) for x, y in zip(base, other))


def test_haar_gates_are_unitary():
    u = workloads.haar(4, workloads.rng_for(0, 0))
    assert np.allclose(u @ u.conj().T, np.eye(4))


def test_layouts():
    c = workloads.brickwork(5, 2, workloads.rng_for(0, 0))
    assert [[g.qubits for g in layer.gates] for layer in c.layers] == [
        [(0, 1), (2, 3)], [(1, 2), (3, 4)]]
    ladder = workloads.paired_ladder(4, 3, workloads.rng_for(0, 0))
    assert {g.qubits for layer in ladder.layers for g in layer.gates} == {(0, 1), (2, 3)}


def test_reference_simulator_matches_a_dense_product():
    c = workloads.brickwork(3, 2, workloads.rng_for(0, 0))
    (g0,), (g1,) = (layer.gates for layer in c.layers)
    full = np.kron(np.eye(2), g1.matrix) @ np.kron(g0.matrix, np.eye(2))
    assert np.allclose(workloads.simulate(c), full[:, 0])


def test_pair_oracle():
    c = workloads.paired_ladder(4, 2, workloads.rng_for(0, 0))
    assert workloads.same_unitary_by_pairs(c, c)
    assert not workloads.same_unitary_by_pairs(
        c, workloads.paired_ladder(4, 2, workloads.rng_for(0, 1)))


def test_strong_checks_accept_the_verdict_and_reject_its_flip():
    w = workloads.WORKLOADS["strong-narrow"]
    for index in range(w.cycle):
        op = w.make(0, index)
        report = op.call()
        assert op.check(report)
        flipped = "inequivalent" if report.verdict == "equivalent" else "equivalent"
        assert not op.check(dataclasses.replace(report, verdict=flipped))
