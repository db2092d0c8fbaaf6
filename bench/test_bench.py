"""Tests of the benchmark's own arithmetic on fixed inputs.

    python3 -m pytest bench/test_bench.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# --- percentile rule ----------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 4.0
    assert stats.percentile(xs, 50) == 2.5
    assert stats.percentile(list(range(101)), 99) == 99.0


@pytest.mark.parametrize("n, level, beyond", [
    (19, 50.0, 9),      # too few samples for any level: fall back to the median
    (20, 50.0, 10),
    (40, 75.0, 10),
    (60, 75.0, 15),
    (100, 90.0, 10),
    (572, 95.0, 28),
    (1000, 99.0, 10),
    (1508, 99.0, 15),
    (10000, 99.9, 10),
])
def test_tail_level_keeps_ten_samples_beyond(n, level, beyond):
    assert stats.tail_level(n) == (level, beyond)


def test_tail_level_is_the_highest_qualifying_level():
    for n in range(20, 3000):
        level, beyond = stats.tail_level(n)
        assert beyond >= stats.TAIL_MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > level]
        assert all(stats.beyond(n, p) < stats.TAIL_MIN_BEYOND for p in higher)


# --- shares -------------------------------------------------------------------


def test_share_arithmetic():
    assert stats.share(35, 40) == 0.875
    assert stats.share(0, 1) == 0.0
    assert stats.share(60, 60) == 1.0
    with pytest.raises(ValueError):
        stats.share(1, 0)
    with pytest.raises(ValueError):
        stats.share(5, 4)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 10.2, 9.8, 10.1, 9.9, 10.3, 10.0]
    q1, med, q3 = 9.875, 10.05, 10.35  # statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / med)


# --- spans and self time ------------------------------------------------------


def _span(name, start, end, parent, note=None):
    return [name, start, end, parent, "i", note]


def test_self_time_subtracts_children_once():
    spans = [
        _span("annihilator.decide", 0, 100, -1),
        _span("qzlinear.solve", 10, 40, 0, 6),
        _span("qzlinear.snf", 15, 25, 1),
        _span("cyclotomic.minvan", 50, 60, 0, 1),
        _span("cyclotomic.minvan", 60, 70, 0, 0),
    ]
    assert tracing.self_times(spans) == [100 - 30 - 20, 30 - 10, 10, 10, 10]


def test_self_time_counts_overlapping_children_as_one_interval():
    spans = [_span("a", 0, 100, -1), _span("b", 10, 50, 0), _span("c", 30, 70, 0)]
    assert tracing.self_times(spans)[0] == 100 - 60


def test_layer_metrics_from_fixed_spans():
    ns = 1_000_000_000
    spans = [
        _span("annihilator.decide", 0, 10 * ns, -1),
        _span("qzlinear.solve", 0, 4 * ns, 0, 6),
        _span("qzlinear.snf", 0, 1 * ns, 1),
        _span("qzlinear.solve", 4 * ns, 5 * ns, 0, None),
        _span("cyclotomic.minvan", 5 * ns, 6 * ns, 0, 1),
        _span("cyclotomic.minvan", 6 * ns, 7 * ns, 0, 0),
        _span("annihilator.witness", 7 * ns, 8 * ns, 0, 12),
        _span("multitile.torus", 0, ns, -1, 0),
        _span("multitile.box", ns, 3 * ns, -1, "BudgetExceededError"),
        _span("multitile.box", 3 * ns, 4 * ns, -1, 1),
    ]
    m = tracing.layer_metrics(spans, timeouts=2)
    assert m["annihilator.decide_calls"] == 1
    assert m["annihilator.decide_s"] == 10.0
    assert m["annihilator.self_s"] == 10.0 - 5.0 - 2.0 - 1.0
    assert m["qzlinear.solve_calls"] == 2
    assert m["qzlinear.solve_s"] == 5.0
    assert m["qzlinear.snf_s"] == 1.0
    assert m["qzlinear.apply_s"] == 4.0
    assert m["qzlinear.feasible_ratio"] == 0.5
    assert m["annihilator.candidate_space"] == 6
    assert m["annihilator.witness_cells"] == 12
    assert m["annihilator.timeouts"] == 2
    assert m["cyclotomic.exact_tests"] == 2
    assert m["cyclotomic.exact_pass_ratio"] == 0.5
    assert m["multitile.torus_steps"] == 1
    assert m["multitile.box_steps"] == 2
    assert m["multitile.budget_overruns"] == 1
    assert m["multitile.deciding_step_ratio"] == pytest.approx(1 / 3)


def test_tracer_closes_spans_on_exceptions():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise KeyError(x)
        return x

    traced_inner = tracer.wrap("inner", inner, note=lambda r: r)
    outer = tracer.wrap("outer", lambda x: traced_inner(x))
    assert outer(3) == 3
    with pytest.raises(KeyError):
        outer(-1)
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "outer", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    assert tracer.spans[1][5] == 3 and tracer.spans[3][5] == "KeyError"
    assert tracer.stack == []


# --- inputs -------------------------------------------------------------------


def test_inputs_depend_only_on_the_seed():
    for make in workloads.BATCHES.values():
        assert make(3) == make(3)
    assert workloads.cyclic_batch(3) != workloads.cyclic_batch(4)
    assert workloads.annihilator_batch(3) != workloads.annihilator_batch(4)


def test_polyomino_census_counts():
    # free polyominoes with 1..7 cells (OEIS A000105)
    assert [len(workloads.free_polyominoes(n)) for n in range(1, 8)] == [1, 1, 2, 5, 12, 35, 108]
