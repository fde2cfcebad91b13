"""Span arithmetic and the wrapping of treecut's public functions."""

import treecut
from layers import LAYER_NAMES, layer_metrics
from spans import Tracer, instrumented, outermost, self_times_ns
from treecut import criteria, generate, spectral, tree


def _span(name, start, end, parent, size=None):
    return [name, start, end, parent, size]


SPANS = [
    _span("criteria.sweep", 0, 100, -1),
    _span("generate.gw_conditioned_size", 10, 40, 0, 30),
    _span("spectral.decompose", 50, 90, 0, 30),
    _span("spectral.laplacian", 55, 65, 2, 30),
    _span("spectral.decompose", 92, 95, 0, 30),
    _span("generate.gw_conditioned_size", 96, 98, 0, 30),
]


def test_self_time_is_duration_minus_direct_children():
    assert self_times_ns(SPANS) == [100 - 30 - 40 - 3 - 2, 30, 40 - 10, 10, 3, 2]
    # self times of a span tree add up to the root's duration
    assert sum(self_times_ns(SPANS)) == 100


def test_outermost_skips_nested_calls_of_the_same_name():
    spans = [_span("tree.reroot", 0, 10, -1), _span("tree.reroot", 2, 5, 0),
             _span("tree.reroot", 12, 14, -1)]
    assert outermost(spans, lambda nm: nm == "tree.reroot") == [spans[0], spans[2]]


def test_layer_metrics_split_the_traced_wall_time():
    m = layer_metrics(SPANS, {"generate.attempts": 8}, traced_wall_s=120e-9,
                      untraced_wall_s=100e-9)
    assert abs(sum(m[f"layer.{name}.self_s"] for name in LAYER_NAMES) - 120e-9) < 1e-18
    assert abs(m["layer.bench.self_s"] - 20e-9) < 1e-18
    assert m["spectral.eigh_calls"] == 1 and m["spectral.decompose_calls"] == 2
    assert m["spectral.decompose_hit_ratio"] == 0.5
    assert abs(m["spectral.eigh_s"] - 30e-9) < 1e-18
    assert m["spectral.eigh_gflop_computed"] == 9 * 30 ** 3 * 1e-9
    assert m["generate.trees"] == 2 and m["generate.accept_ratio"] == 0.25
    assert abs(m["trace.overhead_share"] - 0.2) < 1e-12


def test_instrumented_records_cross_module_calls_and_restores():
    original = criteria.compute_metrics
    t = generate.cor15_tree(8)
    tracer = Tracer()
    with instrumented(tracer):
        criteria.analyze_tree(t, 0.25, 8)
        generate.gw_conditioned_size(generate.OffspringDistribution.geometric(0.5), 5, 3)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "criteria.analyze_tree"
    # criteria imported compute_metrics by name; the call is still seen
    assert any(s[0] == "tree.compute_metrics" and s[3] == 0 for s in tracer.spans)
    assert "spectral.decompose" in names and "kernels.tv_from_kernel" in names
    assert tracer.counters["generate.attempts"] >= 1
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert criteria.compute_metrics is original is tree.compute_metrics
    assert treecut.spectrum is spectral.spectrum
    assert generate.SplitMix64 is treecut.rng.SplitMix64
