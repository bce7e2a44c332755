"""Self-check suites: every suite passes and is worker-count invariant."""

import numpy as np
import pytest

from liftzonoid import (
    DegenerateMeasure,
    EmpiricalMeasure,
    GaussianMeasure,
    InputFormatError,
    support_trimmed,
    zonoid_depth,
)
from liftzonoid.verify import SUITES, _facet_depth, run_suite


@pytest.mark.parametrize("name", SUITES)
def test_suite_passes(name):
    samples = 200_000 if name == "gaussian" else 1_000
    report = run_suite(name, seed=0, samples=samples)
    assert report["passed"], report
    assert report["suite"] == name
    assert all(p["passed"] for p in report["properties"])
    assert all(p["max_error"] <= p["tolerance"] for p in report["properties"])


def test_worker_count_does_not_change_report():
    lone = run_suite("theorem1", seed=4, workers=1)
    pool = run_suite("theorem1", seed=4, workers=3)
    assert lone == pool


def test_gaussian_suite_worker_invariance():
    lone = run_suite("gaussian", seed=2, samples=150_000, workers=1)
    pool = run_suite("gaussian", seed=2, samples=150_000, workers=4)
    assert lone == pool


def test_theorem1_accepts_explicit_measure(square):
    report = run_suite("theorem1", measure=square, seed=1)
    assert report["passed"]
    assert report["n_measures"] == 1


def _by_name(report):
    return {p["name"]: p for p in report["properties"]}


def test_theorem1_on_a_gaussian_leaves_out_the_atom_property():
    mu = GaussianMeasure.from_covariance([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
    report = run_suite("theorem1", measure=mu, seed=1)
    props = _by_name(report)
    assert report["passed"]
    assert "small-alpha-farthest-atom" not in props  # a Gaussian has no atoms
    assert "centered-reflection" in props


def test_theorem1_gaussian_reflection_fails_when_centering_is_broken(monkeypatch):
    # an affine image that ignores its shift leaves the measure uncentered
    monkeypatch.setattr(GaussianMeasure, "affine_image", lambda self, matrix, shift=None: self)
    mu = GaussianMeasure.from_covariance([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
    report = run_suite("theorem1", measure=mu, seed=1)
    assert not report["passed"]
    assert not _by_name(report)["centered-reflection"]["passed"]


def _cloud(scale, n=50):
    pts = np.random.default_rng(5).standard_normal((n, 2)) + [0.3, -0.2]
    return EmpiricalMeasure(pts * scale, np.full(n, 1.0 / n))


def _law(scale):
    return GaussianMeasure.from_covariance(np.array([1.0, -2.0]) * scale,
                                           np.array([[2.0, 0.3], [0.3, 1.0]]) * scale ** 2)


def _verdicts(report):
    return {p["name"]: p["passed"] for p in report["properties"]}


def test_verdicts_do_not_depend_on_the_units():
    # absolute tolerances once failed these at 1e10 and passed anything at 1e-10
    runs = [("theorem1", _cloud), ("theorem1", _law), ("roundtrip", _law)]
    for suite, make in runs:
        verdicts = [_verdicts(run_suite(suite, measure=make(s), seed=1)) for s in (1e-10, 1.0, 1e10)]
        assert verdicts[0] == verdicts[1] == verdicts[2], suite
        assert all(verdicts[1].values()), suite


def _reflection_with_a_shift(monkeypatch, mu):
    shift = 1e-6 * mu.radius

    def shifted(measure, query):
        return support_trimmed(measure, query) + shift

    monkeypatch.setattr("liftzonoid.verify.support_trimmed", shifted)
    return _by_name(run_suite("theorem1", measure=mu, seed=1))["centered-reflection"]


def test_theorem1_reflection_catches_a_shift_at_a_tiny_scale(monkeypatch):
    assert not _reflection_with_a_shift(monkeypatch, _cloud(1e-10))["passed"]


def test_theorem1_reflection_catches_a_shift_past_squared_overflow(monkeypatch):
    # |mean|^2 overflows at 1e200; a reach of inf would divide every error to 0
    assert not _reflection_with_a_shift(monkeypatch, _cloud(1e200))["passed"]


def test_theorem1_farthest_atom_probes_below_its_weight():
    # at n = 20000 a fixed alpha of 1e-4 holds two atoms of weight 5e-5
    prop = _by_name(run_suite("theorem1", measure=_cloud(1.0, n=20_000), seed=1))["small-alpha-farthest-atom"]
    assert prop["passed"] and prop["checked"] > 0


def test_oracle_suite_reports_checked_instances():
    prop = _by_name(run_suite("oracle", seed=0))["lp-depth-matches-bruteforce"]
    assert prop["checked"] == 25
    assert prop["max_error"] <= 1e-12 and prop["tolerance"] == 1e-12


def test_facet_depth_at_atoms_of_tied_integer_clouds():
    # a facet through an atom of an integer cloud has height exactly 0, so
    # it can neither cap the depth below the LP's nor pass for a facet above
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(300):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 1, 10))
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
        x = pts[int(rng.integers(0, n))]
        try:
            mu = EmpiricalMeasure.uniform(pts)
            depth = zonoid_depth(mu, x).depth
        except DegenerateMeasure:
            continue
        assert abs(_facet_depth(mu, x) - depth) <= 1e-9, (pts, x)
        checked += 1
    assert checked > 250


def test_oracle_suite_with_no_instances_fails(monkeypatch):
    monkeypatch.setattr("liftzonoid.verify._ORACLE_INSTANCES", 0)
    report = run_suite("oracle", seed=0)
    prop = _by_name(report)["lp-depth-matches-bruteforce"]
    assert prop["checked"] == 0
    assert not prop["passed"] and not report["passed"]


class _MidpointStream:
    """Draws the middle of every range, so all atoms of a draw coincide."""

    def integers(self, low, high):
        return (low + high) // 2

    def uniform(self, low, high, size=None):
        return np.full(size, 0.5 * (low + high))


def test_oracle_suite_fails_when_every_draw_is_degenerate(monkeypatch):
    monkeypatch.setattr("liftzonoid.verify.task_stream", lambda seed, task: _MidpointStream())
    monkeypatch.setattr("liftzonoid.verify._ORACLE_INSTANCES", 6)
    report = run_suite("oracle", seed=0)
    prop = _by_name(report)["lp-depth-matches-bruteforce"]
    assert prop["checked"] == 0
    assert not prop["passed"] and not report["passed"]


def test_roundtrip_accepts_gaussian_measure():
    mu = GaussianMeasure.from_covariance([1.0, 0.0], [[2.0, 0.3], [0.3, 1.0]])
    report = run_suite("roundtrip", measure=mu, seed=1)
    assert report["passed"]


def test_roundtrip_rejects_empirical(square):
    with pytest.raises(InputFormatError):
        run_suite("roundtrip", measure=square)


def test_unknown_suite():
    with pytest.raises(InputFormatError):
        run_suite("nope")


@pytest.mark.parametrize("name,message", [
    ("gaussian", "the gaussian suite runs on built-in data and takes no measure"),
    ("oracle", "the oracle suite runs on built-in data and takes no measure"),
    ("roundtrip", "the roundtrip suite needs a Gaussian measure"),
    ("nope", "unknown suite 'nope'; choose from theorem1, gaussian, roundtrip, oracle"),
])
def test_rejected_measure_or_name_keeps_its_message(square, name, message):
    with pytest.raises(InputFormatError) as exc:
        run_suite(name, measure=square)
    assert str(exc.value) == message


def test_seed_changes_instances_not_verdict():
    a = run_suite("oracle", seed=10, samples=1_000)
    b = run_suite("oracle", seed=11, samples=1_000)
    assert a["passed"] and b["passed"]
    assert a != b  # the sampled errors differ
