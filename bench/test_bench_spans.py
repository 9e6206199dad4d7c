"""Span recording and the self-time arithmetic of the traced run."""

import sys
import types

import pytest

import spans
from spans import Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_children():
    tree = [
        Span("equivalence.check_weak", 1, None, 0.0, 10.0),
        Span("description.compute_description", 1, 0, 1.0, 8.0),
        Span("linalg.conjugate", 1, 1, 2.0, 4.0),
        Span("linalg.conjugate", 1, 1, 5.0, 6.5),
        Span("circuit.validate", 1, 0, 8.5, 9.0),
    ]
    assert self_times(tree) == pytest.approx([2.5, 3.5, 2.0, 1.5, 0.5])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    tree = [
        Span("a", 1, None, 0.0, 10.0),
        Span("b", 1, 0, 2.0, 6.0),
        Span("c", 1, 0, 4.0, 7.0),
        Span("d", 1, 0, 9.0, 12.0),
    ]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_per_operation():
    tree = [
        Span("equivalence.check_weak", 1, None, 0.0, 10.0),
        Span("description.compute_description", 1, 0, 1.0, 8.0,
             {"entries": 4, "max_width": 6, "width_sum": 20, "matrix_bytes": 100}),
        Span("linalg.conjugate", 1, 1, 2.0, 4.0, {"bytes": 64}),
        Span("equivalence.check_weak", 2, None, 20.0, 22.0),
    ]
    m = layer_metrics(tree, 2)
    assert list(m) == list(spans.LAYER_UNITS)
    assert m["linalg.conjugate_s"] == pytest.approx(1.0)
    assert m["linalg.conjugate_calls"] == pytest.approx(0.5)
    assert m["linalg.conjugate_bytes"] == pytest.approx(32)
    assert m["equivalence.self_s"] == pytest.approx((3.0 + 2.0) / 2)
    assert m["description.self_s"] == pytest.approx(5.0 / 2)
    assert m["description.max_width"] == 6
    assert m["description.width_sum"] == pytest.approx(10)
    assert m["assertion.max_width"] == 0


def test_tracer_nests_spans_and_restores_bindings():
    module = types.ModuleType("fake")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    sys.modules["fake_bench_module"] = module
    try:
        tracer = Tracer()
        tracer.op = 3
        bindings = (("fake_bench_module", "inner", "linalg.conjugate"),
                    ("fake_bench_module", "renamed_away", "linalg.embed"),
                    ("no_such_module_anywhere", "x", "linalg.embed"))
        with tracer.installed(bindings):
            assert tracer.call("root.op", module.outer, 1) == 4
    finally:
        del sys.modules["fake_bench_module"]
    assert module.inner is original
    assert tracer.absent == {"fake_bench_module.renamed_away", "no_such_module_anywhere.x"}
    assert [(s.name, s.parent, s.op) for s in tracer.spans] == [
        ("root.op", None, 3), ("linalg.conjugate", 0, 3)]
    assert all(s.end >= s.start for s in tracer.spans)

