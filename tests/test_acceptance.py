"""Acceptance suite: one test per input contract criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Budgets and tolerances are pinned here and must not be
loosened; see the README for what each criterion covers.
"""

import json
from time import perf_counter

import numpy as np
import pytest

from shallowcheck import (
    Circuit,
    Layer,
    LocalProjection,
    check_strong,
    check_weak,
    commutation_check,
    compute_description,
    named_gate,
    random_circuit,
    runtime_assert,
    simulate,
    verify_static,
)
from shallowcheck.cli import main
from shallowcheck.linalg import apply_local
from support import (
    equal_up_to_phase,
    intersection_rank_small,
    micro_fixtures,
    order_independence_check,
)

# The (n, depth) grid used by the 100-circuit uniqueness battery.
UNIQUENESS_GRID = [(n, d) for n in (4, 6, 8, 10) for d in (1, 2, 3)]


@pytest.fixture(scope="session")
def uniqueness_runs():
    """The 100 random circuits and descriptions shared by criteria 2-4."""
    runs = []
    for seed in range(100):
        n, depth = UNIQUENESS_GRID[seed % len(UNIQUENESS_GRID)]
        c = random_circuit(n, depth, seed=seed)
        runs.append((n, depth, c, compute_description(c)))
    return runs


def test_criterion_01_fixture_supports_exact():
    start = perf_counter()
    d = compute_description(random_circuit(8, 3, seed=0))
    supports = [p.support for p in d.projections]
    # 0-indexed labels; the four distinct light cones of an 8-qubit
    # depth-3 brickwork circuit.
    expected_distinct = {
        (0, 1, 2, 3),
        (0, 1, 2, 3, 4, 5),
        (2, 3, 4, 5, 6, 7),
        (4, 5, 6, 7),
    }
    assert set(supports) == expected_distinct
    assert supports == [
        (0, 1, 2, 3),
        (0, 1, 2, 3),
        (0, 1, 2, 3, 4, 5),
        (0, 1, 2, 3, 4, 5),
        (2, 3, 4, 5, 6, 7),
        (2, 3, 4, 5, 6, 7),
        (4, 5, 6, 7),
        (4, 5, 6, 7),
    ]
    assert perf_counter() - start < 1.0


def test_criterion_02_output_state_uniqueness(uniqueness_runs):
    start = perf_counter()
    rng = np.random.default_rng(2024)
    for n, depth, c, d in uniqueness_runs:
        assert intersection_rank_small(d) == 1, (n, depth)
        psi = simulate(c)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for p in d.projections:
            v = apply_local(p.matrix, v, list(p.support), n)
        v = v / np.linalg.norm(v)
        fidelity = abs(np.vdot(psi, v)) ** 2
        assert fidelity >= 1 - 1e-9, (n, depth)
    assert perf_counter() - start < 60.0


def test_criterion_03_support_bound(uniqueness_runs):
    violations = [
        (n, depth, p.support)
        for n, depth, _, d in uniqueness_runs
        for p in d.projections
        if len(p.support) > 2 * depth
    ]
    assert violations == []


def test_criterion_04_commutation(uniqueness_runs):
    for n, depth, _, d in uniqueness_runs:
        assert commutation_check(d) <= 1e-10, (n, depth)


def test_criterion_05_weak_equivalence_matches_oracle():
    start = perf_counter()
    agreements = 0
    for seed in range(100):
        a = random_circuit(10, 3, seed=seed)
        b = random_circuit(10, 3, seed=10_000 + seed)
        verdict = check_weak(a, b).equivalent
        oracle = equal_up_to_phase(simulate(a), simulate(b))
        if verdict == oracle:
            agreements += 1
    assert agreements == 100
    for seed in range(100):
        a = random_circuit(10, 3, seed=seed)
        b = random_circuit(10, 3, seed=seed)
        report = check_weak(a, b)
        assert report.verdict == "equivalent"
        assert report.max_linf <= 1e-10
    assert perf_counter() - start < 120.0


def test_criterion_06_strong_weak_separation():
    s = Circuit(1, [Layer([named_gate("S", (0,))])])
    t = Circuit(1, [Layer([named_gate("T", (0,))])])
    assert check_weak(s, t).verdict == "equivalent"
    assert check_strong(s, t).verdict == "inequivalent"

    h1 = Layer([named_gate("H", (1,))])
    via_cnot = Circuit(2, [h1, Layer([named_gate("CNOT", (0, 1))]), h1])
    cz = Circuit(2, [Layer([named_gate("CZ", (0, 1))])])
    assert check_strong(via_cnot, cz).verdict == "equivalent"


def test_criterion_07_embedded_micro_benchmarks():
    fixtures = {f[0]: f for f in micro_fixtures(seed=0)}

    _, swap_a, swap_b, _ = fixtures["ccu-swap-embedded-20q"]
    start = perf_counter()
    assert check_weak(swap_a, swap_b).verdict == "equivalent"
    assert check_strong(swap_a, swap_b).verdict == "equivalent"
    swap_seconds = perf_counter() - start
    assert swap_seconds <= 600.0

    _, diag_a, diag_b, _ = fixtures["ccu-diagonal-embedded-20q"]
    assert check_weak(diag_a, diag_b).verdict == "equivalent"
    assert check_strong(diag_a, diag_b).verdict == "equivalent"

    # The perturbed control agrees on the all-zeros input by
    # construction, so the weak check passes it; the full-input check is
    # what exposes the perturbation.
    _, pert_a, pert_b, _ = fixtures["ccu-perturbed-embedded-20q"]
    assert check_weak(pert_a, pert_b).verdict == "equivalent"
    assert check_strong(pert_a, pert_b).verdict == "inequivalent"


def _csv_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_criterion_08_scaling_shape(tmp_path):
    n_csv = tmp_path / "n_sweep.csv"
    code = main(
        ["bench", "--mode", "describe", "--n-range", "10:60:10",
         "--depth", "3", "--trials", "3", "--seed", "0", "--csv", str(n_csv)]
    )
    assert code == 0
    by_n = {}
    for row in _csv_rows(n_csv):
        by_n.setdefault(int(row["n"]), []).append(float(row["seconds"]))
    sizes = sorted(by_n)
    assert sizes == [10, 20, 30, 40, 50, 60]
    means = np.array([np.mean(by_n[n]) for n in sizes])
    xs = np.array(sizes, dtype=float)
    slope, intercept = np.polyfit(xs, means, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((means - fit) ** 2))
    ss_tot = float(np.sum((means - np.mean(means)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    assert r_squared >= 0.9
    assert means[-1] / means[0] <= 10.0

    # Depth sweep at n=20: one timed run per depth after a warmup so the
    # smallest depths are not dominated by first-call overhead.
    compute_description(random_circuit(20, 2, seed=999))
    d_csv = tmp_path / "depth_sweep.csv"
    for depth in (2, 3, 4, 5, 6):
        code = main(
            ["bench", "--mode", "describe", "--n-range", "20",
             "--depth", str(depth), "--trials", "1", "--seed", "0",
             "--csv", str(d_csv)]
        )
        assert code == 0
    seconds = [float(row["seconds"]) for row in _csv_rows(d_csv)]
    assert len(seconds) == 5
    for earlier, later in zip(seconds, seconds[1:]):
        assert later > earlier
    assert seconds[-1] / seconds[0] > 3.0


def test_criterion_09_assertion_round_trip():
    grid = [(n, d) for n in (4, 6, 8, 10) for d in (1, 2, 3)]
    for seed in range(50):
        n, depth = grid[seed % len(grid)]
        c = random_circuit(n, depth, seed=seed)
        d = compute_description(c)
        checks = verify_static(c, d)
        assert all(ch.holds for ch in checks), (n, depth, seed)

        entries = list(d.projections)
        k = seed % n
        p = entries[k]
        entries[k] = LocalProjection(
            p.support, np.eye(1 << len(p.support), dtype=complex) - p.matrix
        )
        flipped = verify_static(c, entries)
        for ch in flipped:
            assert ch.holds == (ch.index != k), (n, depth, seed)


def test_criterion_10_runtime_assertion_semantics():
    # Order independence over 20 commuting tuples, 20 permutations each.
    for seed in range(20):
        n = 4 + (seed % 5)
        c = random_circuit(n, 1 + seed % 3, seed=300 + seed)
        psi = simulate(c)
        d = compute_description(c)
        dev = order_independence_check(psi, d, trials=20, seed=seed)
        assert dev <= 1e-10, seed

    # A satisfied tuple never aborts, whatever the sampling seed.
    c = random_circuit(6, 3, seed=77)
    psi = simulate(c)
    d = compute_description(c)
    aborts = sum(
        runtime_assert(psi, d, seed=s).result == "abort" for s in range(1000)
    )
    assert aborts == 0

    # Born-rule frequency: measuring |0><0| on |+> aborts half the time.
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    entry = [LocalProjection((0,), np.array([[1, 0], [0, 0]], dtype=complex))]
    hits = sum(
        runtime_assert(plus, entry, seed=s).result == "abort"
        for s in range(10_000)
    )
    frequency = hits / 10_000
    assert 0.48 <= frequency <= 0.52
