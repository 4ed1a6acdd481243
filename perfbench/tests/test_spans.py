"""Span wrappers, self-time arithmetic and percentile reporting."""

import numpy as np
import pytest

import workloads
from spans import (Span, Tracer, latency_summary, patched, percentile,
                   self_by_layer, self_times, totals_by_name)


class Owner:
    def method(self, x):
        return x + 1


class Child(Owner):
    pass


class Boom(RuntimeError):
    pass


def test_wrapper_restores_and_records():
    tracer = Tracer()
    original = Owner.__dict__["method"]
    with patched([(Owner, "method", tracer.wrap("layer.method", Owner.method))]):
        assert Owner().method(1) == 2
    assert Owner.__dict__["method"] is original
    assert [s.name for s in tracer.spans] == ["layer.method"]
    assert tracer.spans[0].parent == -1 and tracer.spans[0].error is None


def test_exception_passes_through_unchanged_and_originals_return():
    tracer = Tracer()
    err = Boom("kept")

    def fails():
        raise err

    namespace = type("Namespace", (), {"fails": staticmethod(fails)})
    original = namespace.__dict__["fails"]
    with pytest.raises(Boom) as caught:
        with patched([(namespace, "fails", tracer.wrap("layer.fails", fails))]):
            namespace.fails()
    assert caught.value is err
    assert namespace.__dict__["fails"] is original
    assert tracer.spans[0].error == "Boom" and tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_patched_refuses_inherited_attribute():
    with pytest.raises(KeyError):
        with patched([(Child, "method", lambda self, x: x)]):
            pass
    assert "method" not in Child.__dict__


def test_counter_keys_and_nesting():
    tracer = Tracer()
    inner = tracer.wrap("b.inner", lambda: None)
    outer = tracer.wrap("a.outer", lambda: inner())
    tracer.run = "r1"
    outer()
    tracer.counter("c.calls", lambda kind: kind, key=lambda kind: kind)("x")
    assert [s.parent for s in tracer.spans] == [-1, 0]
    assert {s.run for s in tracer.spans} == {"r1"}
    assert tracer.counts[("r1", "c.calls.x")] == 1 and tracer.total("c.calls.x") == 1


def test_every_layer_wrapper_is_restored():
    replacements = workloads.layer_wrappers(Tracer())
    originals = [owner.__dict__[attr] for owner, attr, _ in replacements]
    with patched(replacements):
        assert all(owner.__dict__[attr] is new for owner, attr, new in replacements)
    assert [owner.__dict__[attr] for owner, attr, _ in replacements] == originals


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    spans = [Span("h.root", 0.0, 10.0, -1, "r"), Span("f.a", 1.0, 4.0, 0, "r"),
             Span("f.b", 5.0, 9.0, 0, "r"), Span("g.c", 6.0, 8.0, 2, "r")]
    assert self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert self_by_layer(spans) == {"h": 3.0, "f": 5.0, "g": 2.0}
    totals = totals_by_name(spans)
    assert totals["f.b"].total_s == 4.0 and totals["f.b"].self_s == 2.0
    assert sum(self_times(spans)) == spans[0].duration


@pytest.mark.parametrize("q", [0, 10, 50, 90, 100])
def test_percentile_matches_numpy(q):
    values = list(np.random.default_rng(3).exponential(size=37))
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_latency_summary_counts():
    summary = latency_summary(list(range(1, 101)))
    assert summary["n"] == 100
    assert summary["p50"] == pytest.approx(50.5)
    assert summary["p90"] == pytest.approx(90.1)
    assert summary["beyond_p90"] == 10
    assert latency_summary([5.0])["beyond_p90"] == 0
    with pytest.raises(ValueError):
        percentile([], 50)
