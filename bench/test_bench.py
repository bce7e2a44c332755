"""Tests of the benchmark's own logic, on synthetic spans and tiny inputs.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import run as bench  # noqa: E402
from reference import TailTable  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402
from stats import covered_length, tail  # noqa: E402


def test_tail_leaves_exactly_ten_samples_beyond():
    value, pct, n = tail(list(range(1, 101)))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = tail([5.0] * 3 + list(range(20, 40)))
    assert value == 29 and n == 23 and pct == pytest.approx(100 * 13 / 23)


def test_tail_with_too_few_samples_reports_percentile_zero():
    assert tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)
    with pytest.raises(ValueError):
        tail([])


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_length([(-5, -1), (11, 12)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def _spans(rows):
    return [Span(name, start, end, parent, op, meta) for name, start, end, parent, op, meta in rows]


def test_self_time_subtracts_only_direct_children():
    spans = _spans(
        [
            ("a", 0.0, 10.0, None, 0, None),
            ("b", 1.0, 3.0, 0, 0, None),
            ("c", 2.0, 5.0, 0, 0, None),  # overlaps b: covered once
            ("d", 2.5, 2.7, 2, 0, None),  # grandchild of a
            ("e", 8.0, 12.0, 0, 0, None),  # runs past a's end: clipped
        ]
    )
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.2)
    assert selfs[3] == pytest.approx(0.2)


def test_layer_metrics_counts_passes_and_iterations():
    spans = _spans(
        [
            ("barycentric.convert_coords", 0.0, 1.0, None, 0, None),
            ("zonoid.support_trimmed", 0.1, 0.2, 0, 0, None),
            ("zonoid.support_trimmed", 0.3, 0.4, 0, 0, None),
            ("measures.upper_mass_split", 0.31, 0.39, 2, 0, None),
            ("zonoid.support_trimmed", 2.0, 2.1, None, 1, None),  # outside any conversion
            ("depth.zonoid_depth", 3.0, 4.0, None, 1, {"iterations": 30, "n": 10}),
            ("depth.zonoid_depth", 4.0, 5.0, None, 1, {"iterations": 10, "n": 20}),
            ("measures.load_measure", 5.0, 5.5, None, "setup", {"bytes": 2_000_000}),
        ]
    )
    m = layer_metrics(spans, n_ops=2, import_s=0.5, overhead_frac=0.1)
    assert m["barycentric.tail_passes_per_conversion"] == 2
    assert m["simplex.iterations"] == 40
    assert m["simplex.iterations_per_atom"] == pytest.approx((3.0 + 0.5) / 2)
    assert m["measures.tail_calls_per_op"] == 0.5
    assert m["measures.load_mb_per_s"] == pytest.approx(4.0)
    assert m["zonoid.support_trimmed_self_ms"] == pytest.approx(1e3 * (0.1 + 0.02 + 0.1) / 3)
    assert m["simplex.solve_ms"] == 0.0  # a layer the spans never entered


def test_tracer_wraps_every_binding_and_restores_them():
    import liftzonoid
    import liftzonoid.barycentric
    import liftzonoid.cli
    import liftzonoid.depth

    original = liftzonoid.depth.zonoid_depth
    mu = liftzonoid.EmpiricalMeasure(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    tracer = Tracer()
    tracer.install()
    try:
        for module in (liftzonoid, liftzonoid.depth, liftzonoid.barycentric, liftzonoid.cli):
            assert module.zonoid_depth is not original
        tracer.op = 7
        liftzonoid.represent(mu, [0.5])
    finally:
        tracer.uninstall()
    for module in (liftzonoid, liftzonoid.depth, liftzonoid.barycentric, liftzonoid.cli):
        assert module.zonoid_depth is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "barycentric.represent"
    depth = tracer.spans[names.index("depth.zonoid_depth")]
    assert depth.parent == 0 and depth.op == 7 and depth.meta["n"] == 2
    assert "simplex.solve_bounded_lp" in names and "measures.upper_quantile" in names


class _Flaky:
    """Op i raises when i % 3 == 0 and returns a wrong answer when i % 3 == 1."""

    def run(self, i):
        if i % 3 == 0:
            raise RuntimeError("boom")
        return i % 3

    def check(self, i, result):
        if i == 5:
            raise ValueError("the check itself breaks")
        return result == 2


def test_failures_count_raised_ops_wrong_answers_and_broken_checks(capsys):
    latencies = []
    results = bench.run_ops(_Flaky(), range(9), latencies)
    assert len(results) == len(latencies) == 9
    # raised: 0, 3, 6; wrong: 1, 4, 7; broken check: 5
    assert bench.count_failures(_Flaky(), results) == 7
    assert "op 5 failed" in capsys.readouterr().err


def test_reference_tail_on_tied_weighted_atoms():
    pts = np.array([[3.0, 0.0], [1.0, 5.0], [1.0, -2.0], [0.0, 0.0]])
    w = np.array([0.1, 0.2, 0.3, 0.4])
    table = TailTable(pts, w, np.array([1.0, 0.0]))
    # alpha = 0.3: atom 0 in full, the tied atoms at 1.0 share 0.2 of their 0.5
    assert table.quantile(0.3) == 1.0
    assert table.support(0.3) == pytest.approx((0.1 * 3.0 + 0.2 * 1.0) / 0.3)
    expected = (0.1 * pts[0] + 0.2 / 0.5 * (0.2 * pts[1] + 0.3 * pts[2])) / 0.3
    assert table.boundary(0.3) == pytest.approx(expected)
    for alpha in (0.05, 0.3, 0.55, 0.8, 1.0):
        if alpha > 0.1:  # the first segment is flat at the top value
            assert table.alpha_for_support(table.support(alpha)) == pytest.approx(alpha)
