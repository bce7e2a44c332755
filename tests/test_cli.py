"""Command-line interface: payloads, exit codes, determinism.

Tests drive main(argv) in-process; one smoke test exercises the installed
console script through a real subprocess.
"""

import csv
import io
import json
import logging
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from liftzonoid import gaussian_depth, load_measure
from liftzonoid.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SQUARE_CSV = "1,1\n1,-1\n-1,1\n-1,-1\n"
TWO_ATOM_CSV = "-1\n1\n"


@pytest.fixture
def square_csv(tmp_path):
    p = tmp_path / "square.csv"
    p.write_text(SQUARE_CSV)
    return str(p)


@pytest.fixture
def two_atom_csv(tmp_path):
    p = tmp_path / "two.csv"
    p.write_text(TWO_ATOM_CSV)
    return str(p)


@pytest.fixture
def std2_json(tmp_path):
    p = tmp_path / "std2.json"
    p.write_text(json.dumps({"mean": [0.0, 0.0],
                             "covariance": [[1.0, 0.0], [0.0, 1.0]]}))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDepthCommand:
    def test_two_atom_payload(self, capsys, two_atom_csv):
        code, out, _ = run_cli(capsys, "depth", "--measure", two_atom_csv,
                               "--point", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["depth"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert payload["status"] == "interior"
        assert payload["dual_direction"] == [1.0]
        assert payload["max_weight_ratio"] == pytest.approx(1.5, abs=1e-12)
        assert payload["iterations"] == 1 and payload["bound_flips"] == 0

    def test_outside_exits_2(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "depth", "--measure", square_csv,
                               "--point", "9,9")
        assert code == 2
        assert json.loads(out)["status"] == "outside"

    def test_gaussian_mean(self, capsys, std2_json):
        code, out, _ = run_cli(capsys, "depth", "--gaussian", std2_json,
                               "--point", "0,0")
        assert code == 0
        assert json.loads(out)["depth"] == 1.0

    def test_gaussian_depth_underflow_exits_2(self, capsys, std2_json):
        code, out, err = run_cli(capsys, "depth", "--gaussian", std2_json, "--point", "40,0")
        assert code == 2 and out == ""
        assert err.startswith("domain condition: ") and "underflows" in err

    @staticmethod
    def _underflow_codes(capsys, path, mu, angle, radii):
        """Exit codes of depth, represent and coords at whitened radii along one angle."""
        e = np.array([math.cos(angle), math.sin(angle)])
        rows = []
        for r in radii:
            point = ",".join(map(repr, (mu.location + mu.factor @ (r * e)).tolist()))
            rows.append([run_cli(capsys, *cmd, f"--gaussian={path}", f"--point={point}")[0]
                         for cmd in (["depth"], ["represent"], ["coords", "--to=depth"])])
        return rows

    @pytest.fixture
    def session_law(self, tmp_path):
        # the non-identity law of the cli-session benchmark at seed 1
        rng = np.random.default_rng([1, 4])
        rng.standard_normal((200, 2))
        a = rng.standard_normal((2, 2))
        law = {"mean": rng.standard_normal(2).tolist(), "covariance": (a @ a.T + 0.5 * np.eye(2)).tolist()}
        path = tmp_path / "law.json"
        path.write_text(json.dumps(law))
        return str(path), load_measure(None, str(path))

    def test_gaussian_commands_agree_across_the_depth_underflow(self, capsys, session_law):
        # the underflow sits near whitened radius 38.5
        for angle in (0.0, 1.1, 2.6, 4.0):
            rows = self._underflow_codes(capsys, *session_law, angle, np.linspace(38.0, 39.5, 31))
            assert all(len(set(codes)) == 1 for codes in rows), (angle, rows)
            assert {codes[0] for codes in rows} == {0, 2}

    def test_gaussian_commands_agree_at_the_last_positive_depth(self, capsys, session_law):
        path, mu = session_law
        for angle in (0.05 * math.pi, 0.2 * math.pi):
            e = np.array([math.cos(angle), math.sin(angle)])
            lo, hi = 38.0, 39.5  # bisect for the last radius with a positive depth
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if gaussian_depth(mu, mu.location + mu.factor @ (mid * e)) > 0.0 else (lo, mid)
            rows = self._underflow_codes(capsys, path, mu, angle, lo + np.arange(-6, 7) * 4e-14)
            assert all(len(set(codes)) == 1 for codes in rows), (angle, rows)

    def test_both_sources_exit_1(self, capsys, square_csv, std2_json):
        code, _, err = run_cli(capsys, "depth", "--measure", square_csv,
                               "--gaussian", std2_json, "--point", "0,0")
        assert code == 1
        assert err

    def test_bad_point_exit_1(self, capsys, square_csv):
        code, _, err = run_cli(capsys, "depth", "--measure", square_csv,
                               "--point", "1,zzz")
        assert code == 1
        assert err

    def test_malformed_csv_names_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0\n1,oops\n")
        code, _, err = run_cli(capsys, "depth", "--measure", str(bad),
                               "--point", "0,0")
        assert code == 1
        assert "row 2" in err


    @staticmethod
    def _run_near_flat(capsys, tmp_path, pts, x, *command):
        p = tmp_path / "flat.csv"
        p.write_text("".join(",".join(map(repr, row)) + "\n" for row in pts.tolist()))
        point = ",".join(map(repr, x.tolist()))
        code, out, err = run_cli(capsys, *command, "--measure", str(p), f"--point={point}")
        assert code == 2 and out == ""
        assert err.startswith("domain condition: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["depth"], ["represent"], ["coords", "--to=depth"]],
                             ids=["depth", "represent", "coords"])
    def test_singular_basis_on_a_near_flat_cloud_exits_2(self, capsys, tmp_path, near_flat_fuzz,
                                                         command):
        # the 248th cloud of a near-flat fuzz (n = 9, d = 5, thickness 4.6e-8):
        # the depth LP at the midpoint of its first two atoms meets a basis
        # that is singular to working precision; every command that runs
        # the LP reports it as a domain condition
        pts = near_flat_fuzz(247)
        self._run_near_flat(capsys, tmp_path, pts, 0.5 * (pts[0] + pts[1]), *command)

    def test_unrepairable_row_on_a_near_flat_cloud_exits_2(self, capsys, tmp_path, near_flat_fuzz):
        # the 75th cloud of the same fuzz (n = 6, d = 2, thickness 2.6e-8): at
        # its first atom rounding leaves a basic row no ratio test can repair
        pts = near_flat_fuzz(74)
        self._run_near_flat(capsys, tmp_path, pts, pts[0], "depth")


class TestDimensionMismatch:
    """A vector of the wrong length is malformed input: one error line, exit 1."""

    @pytest.mark.parametrize("argv", [
        ["support", "--direction", "1,0,0"],
        ["support", "--direction", "1,0,0", "--alpha", "0.5"],
        ["support", "--direction", "1,0,0", "--lift-t", "0.3"],
        ["barycenter", "--direction", "1,0,0", "--offset", "0.2"],
        ["depth", "--point", "0.5,0.5,0"],
        ["represent", "--point", "1,0,0"],
        ["coords", "--from", "depth", "--scalar", "0.5", "--direction", "1,0,0"],
        # the whole space has a direction too, and it must fit the measure
        ["barycenter", "--direction", "1,0,0", "--offset=-inf"],
        ["coords", "--from", "offset", "--scalar=-inf", "--direction", "1,0,0", "--to", "depth"],
    ])
    @pytest.mark.parametrize("kind", ["measure", "gaussian"])
    def test_exit_1_with_one_error_line(self, capsys, square_csv, std2_json, kind, argv):
        source = square_csv if kind == "measure" else std2_json
        code, out, err = run_cli(capsys, *argv, f"--{kind}", source)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "expected 2 entries, got 3" in err and "Traceback" not in err


class TestContourCommand:
    def test_csv_is_convex_loop(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "contour", "--measure", square_csv,
                               "--alpha", "0.5", "--directions", "48",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,ux,uy,bx,by"
        assert len(lines) == 49
        rows = np.array([[float(c) for c in ln.split(",")]
                         for ln in lines[1:]])
        hull_dirs, pts = rows[:, 1:3], rows[:, 3:5]
        # every traced point lies inside every supporting half-plane
        support = (pts * hull_dirs).sum(axis=1)
        slack = pts @ hull_dirs.T - support[None, :]
        assert slack.max() <= 1e-9

    def test_csv_names_columns_by_index_past_three_dimensions(self, capsys, tmp_path):
        p = tmp_path / "four.csv"
        pts = np.random.default_rng(4).standard_normal((12, 4))
        p.write_text("".join(",".join(map(repr, row)) + "\n" for row in pts.tolist()))
        code, out, _ = run_cli(capsys, "contour", "--measure", str(p), "--alpha", "0.5",
                               "--directions", "6", "--format", "csv")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header == "alpha,u0,u1,u2,u3,b0,b1,b2,b3"
        assert len(rows) == 6 and {len(row.split(",")) for row in rows} == {9}

    def test_alpha_one_collapses_to_mean(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "contour", "--measure", square_csv,
                               "--alpha", "1.0", "--directions", "8",
                               "--format", "csv")
        assert code == 0
        pts = np.array([[float(c) for c in ln.split(",")[3:]]
                        for ln in out.strip().splitlines()[1:]])
        np.testing.assert_allclose(pts, 0.0, atol=1e-12)

    def test_json_format(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "contour", "--measure", square_csv,
                               "--alpha", "0.5", "--directions", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 0.5
        assert len(payload["boundary"]) == 4
        assert len(payload["directions"]) == 4

    def test_bad_alpha_exit_1(self, capsys, square_csv):
        code, _, _ = run_cli(capsys, "contour", "--measure", square_csv,
                             "--alpha", "0", "--directions", "4")
        assert code == 1


class TestSupportCommand:
    def test_zonoid_support(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "support", "--measure", square_csv,
                               "--direction", "1,0")
        assert code == 0
        assert json.loads(out)["support"] == pytest.approx(0.5, abs=1e-12)

    def test_trimmed_support(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "support", "--measure", square_csv,
                               "--direction", "1,0", "--alpha", "0.75")
        assert code == 0
        assert json.loads(out)["support"] == pytest.approx(1.0 / 3.0,
                                                           abs=1e-12)

    def test_lift_support(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "support", "--measure", square_csv,
                               "--direction", "1,0", "--lift-t", "0.25")
        assert code == 0
        assert json.loads(out)["support"] == pytest.approx(
            2.5 / np.sqrt(17.0), rel=1e-12
        )

    @pytest.mark.parametrize("k", [700, -700])
    @pytest.mark.parametrize("alpha", [[], ["--alpha", "0.75"]])
    def test_direction_normalizes_at_any_scale(self, capsys, square_csv, k, alpha):
        # 2^k (0.6, 0.8) is about 1e+-211: squaring its entries would overflow
        # or underflow; a power of two keeps them exactly proportional
        direction = f"{0.6 * 2.0**k!r},{0.8 * 2.0**k!r}"
        ref = run_cli(capsys, "support", "--measure", square_csv, "--direction", "0.6,0.8", *alpha)
        got = run_cli(capsys, "support", "--measure", square_csv, "--direction", direction, *alpha)
        assert got == ref
        assert ref[0] == 0 and ref[2] == ""

    @pytest.mark.parametrize("t", ["inf", "-inf"])
    def test_infinite_lift_t_is_named(self, capsys, square_csv, t):
        code, out, err = run_cli(capsys, "support", "--measure", square_csv,
                                 "--direction", "1,0", f"--lift-t={t}")
        assert code == 1
        assert out == ""
        assert err == f"error: lift coordinate t must be finite, got {t}\n"

    def test_alpha_and_lift_conflict(self, capsys, square_csv):
        code, _, err = run_cli(capsys, "support", "--measure", square_csv,
                               "--direction", "1,0", "--alpha", "0.5",
                               "--lift-t", "0.1")
        assert code == 1
        assert err


class TestBarycenterCommand:
    def test_halfspace_barycenter(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "barycenter", "--measure", square_csv,
                               "--direction", "1,0", "--offset", "0.5")
        assert code == 0
        assert json.loads(out)["barycenter"] == [1.0, 0.0]

    def test_whole_space(self, capsys, square_csv):
        # the = form keeps argparse from reading -inf as a flag
        code, out, _ = run_cli(capsys, "barycenter", "--measure", square_csv,
                               "--direction", "1,0", "--offset=-inf")
        assert code == 0
        assert json.loads(out)["barycenter"] == [0.0, 0.0]

    def test_zero_mass_exit_2(self, capsys, square_csv):
        code, _, err = run_cli(capsys, "barycenter", "--measure", square_csv,
                               "--direction", "1,0", "--offset", "5")
        assert code == 2
        assert err


class TestRepresentCommand:
    def test_two_atom(self, capsys, two_atom_csv):
        code, out, _ = run_cli(capsys, "represent", "--measure", two_atom_csv,
                               "--point", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["halfspace"] == {"u": [1.0], "a": -1.0}
        assert payload["alpha"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert payload["residual"] == pytest.approx(0.5, abs=1e-12)
        assert payload["unique"] is False

    def test_gaussian_closed_form(self, capsys, std2_json):
        code, out, _ = run_cli(capsys, "represent", "--gaussian", std2_json,
                               "--point", "0.5,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "closed-form"
        assert payload["unique"] is True
        np.testing.assert_allclose(payload["halfspace"]["u"], [1.0, 0.0],
                                   atol=1e-12)

    def test_outside_exit_2(self, capsys, square_csv):
        code, _, err = run_cli(capsys, "represent", "--measure", square_csv,
                               "--point", "7,0")
        assert code == 2
        assert err

    @pytest.mark.parametrize("flags", [["--refine"], ["--residual-tol", "1e-9"]])
    def test_removed_flags_exit_1(self, capsys, two_atom_csv, flags):
        code, out, err = run_cli(capsys, "represent", "--measure", two_atom_csv,
                                 "--point", "0.5", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestCoordsCommand:
    def test_from_point(self, capsys, std2_json):
        code, out, _ = run_cli(capsys, "coords", "--gaussian", std2_json,
                               "--point", "0.5,0", "--to", "support")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "support"
        assert payload["scalar"] == pytest.approx(0.5, abs=1e-12)

    def test_conversion_roundtrip(self, capsys, std2_json):
        code, out, _ = run_cli(capsys, "coords", "--gaussian", std2_json,
                               "--from", "support", "--scalar", "0.5",
                               "--direction", "1,0", "--to", "depth",
                               "--to-back", "support")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "support"
        assert payload["scalar"] == pytest.approx(0.5, abs=1e-7)

    def test_mean_point_exit_2(self, capsys, std2_json):
        code, _, err = run_cli(capsys, "coords", "--gaussian", std2_json,
                               "--point", "0,0", "--to", "depth")
        assert code == 2
        assert err

    @pytest.mark.parametrize("argv,missing", [
        (["--point", "0.5,0"], "--to"),
        (["--from", "support", "--direction", "1,0", "--to", "depth"], "--scalar"),
    ], ids=["point-without-to", "from-without-scalar"])
    def test_missing_companion_flag_exits_1(self, capsys, std2_json, argv, missing):
        code, out, err = run_cli(capsys, "coords", "--gaussian", std2_json, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and missing in err and len(err.splitlines()) == 1

    def test_support_past_the_depth_underflow_exits_2(self, capsys, std2_json):
        code, out, err = run_cli(capsys, "coords", "--gaussian", std2_json, "--from", "support",
                                 "--scalar", "40", "--direction", "1,0", "--to", "depth")
        assert code == 2 and out == ""
        assert err == "domain condition: support level exceeds every representable trimmed region\n"

    def test_support_one_ulp_below_a_tied_top(self, capsys, tmp_path):
        # atoms [0.6, 0.3, 0.6]: the depth is the mass of both top atoms
        rng = np.random.default_rng(83)
        pts = rng.integers(0, 4, size=3) * 0.3
        w = rng.uniform(0.5, 2.0, 3)
        w = w / w.sum()
        p = tmp_path / "tied.csv"
        p.write_text("x,weight\n" + "".join(f"{x!r},{m!r}\n" for x, m in zip(pts.tolist(), w.tolist())))
        code, out, _ = run_cli(capsys, "coords", f"--measure={p}", "--from=support",
                               "--scalar=0.5999999999999999", "--direction=1", "--to=depth")
        assert code == 0
        assert json.loads(out)["scalar"] == pytest.approx(0.718857683819564, abs=1e-12)


class TestGaussianCommand:
    @pytest.mark.parametrize(
        "fn,x,expected",
        [
            ("pdf", "0", "0.398942280401433"),
            ("cdf", "1", "0.841344746068543"),
            ("quantile", "0.975", "1.95996398454005"),
            ("radius", "0.5", "0.797884560802865"),
            ("g", "0", "0.797884560802865"),
            ("ginv", "0.5", "0.517912715992179"),
            ("isoperimetric", "0.5", "0.398942280401433"),
        ],
    )
    def test_scalar_values(self, capsys, fn, x, expected):
        code, out, _ = run_cli(capsys, "gaussian", fn, x)
        assert code == 0
        assert out.strip() == expected

    def test_out_of_range_argument_exit_1(self, capsys):
        # a precondition violation, not a missing answer: exits 1
        code, _, err = run_cli(capsys, "gaussian", "quantile", "1.5")
        assert code == 1
        assert err

    def test_unknown_function_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "gaussian", "tangent", "1.0")
        assert code == 1

    def test_unknown_function_lists_the_choices(self, capsys):
        code, out, err = run_cli(capsys, "gaussian", "tangent", "1.0")
        assert code == 1 and out == ""
        assert err.startswith("error: argument fn: invalid choice: 'tangent'")
        assert "'ginv'" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("x", ["-inf", "inf", "0", "nan"])
    @pytest.mark.parametrize("fn", ["pdf", "cdf", "quantile", "isoperimetric",
                                    "radius", "g", "ginv"])
    def test_special_arguments_give_value_or_error_line(self, capsys, fn, x):
        code, out, err = run_cli(capsys, "gaussian", fn, "--", x)
        assert "Traceback" not in out + err
        if code == 0:
            float(out)  # one printed value, possibly a limit such as inf
            assert err == ""
        else:
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("x,expected", [("-inf", "inf"), ("inf", "0")])
    def test_g_endpoints_are_limits(self, capsys, x, expected):
        code, out, _ = run_cli(capsys, "gaussian", "g", "--", x)
        assert code == 0
        assert out.strip() == expected


class TestPolygonCommand:
    def test_square(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "polygon2d", "--measure", square_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == [[0.0, -0.5], [0.5, 0.0],
                                       [0.0, 0.5], [-0.5, 0.0]]

    def test_gaussian_exit_1(self, capsys, std2_json):
        code, out, err = run_cli(capsys, "polygon2d", "--gaussian", std2_json)
        assert code == 1 and out == ""
        assert err.startswith("error: polygon2d needs an empirical measure")

    def test_wrong_dimension_exit_1(self, capsys, tmp_path):
        p = tmp_path / "three.csv"
        p.write_text("0,0,0\n1,1,1\n2,0,1\n")
        code, _, _ = run_cli(capsys, "polygon2d", "--measure", str(p))
        assert code == 1


class TestVerifyCommand:
    def test_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    @pytest.mark.parametrize("suite", ["theorem1", "roundtrip", "oracle"])
    def test_samples_on_a_suite_that_draws_none_exit_1(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--samples", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "--samples" in err and suite in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_1(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--suite", "gaussian",
                                 "--samples", samples)
        assert code == 1
        assert out == ""
        assert "--samples" in err

    def test_too_few_kept_draws_fail_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gaussian",
                               "--samples", "3")
        assert code == 3
        payload = json.loads(out)
        assert payload["passed"] is False
        prop = {p["name"]: p for p in payload["properties"]}["mc-barycenter-within-4-sigma"]
        assert prop["passed"] is False
        assert 0 <= prop["kept"] < 100

    def test_kept_draws_reported(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "gaussian",
                               "--samples", "1000")
        assert code == 0
        prop = {p["name"]: p for p in json.loads(out)["properties"]}["mc-barycenter-within-4-sigma"]
        assert prop["passed"] is True and prop["kept"] >= 100

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_nonpositive_workers_exit_1(self, capsys, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr("liftzonoid.verify.ThreadPoolExecutor", no_pool)
        code, out, err = run_cli(capsys, "verify", "--suite", "oracle",
                                 "--workers", workers)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--workers" in err

    @pytest.mark.parametrize("suite", ["gaussian", "oracle"])
    def test_suite_on_built_in_data_rejects_a_measure(self, capsys, square_csv, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--measure", square_csv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert suite in err

    def test_unknown_suite_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "wat")
        assert code == 1

    @pytest.mark.parametrize("rows", ["0.5,2\n", "0.5,2\n0.5,2\n"])
    def test_theorem1_on_coincident_atoms_exit_1(self, capsys, tmp_path, rows):
        # one atom once crashed with an IndexError, two checked no direction
        p = tmp_path / "coincident.csv"
        p.write_text(rows)
        code, out, err = run_cli(capsys, "verify", "--suite", "theorem1", "--measure", str(p))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "coincide" in err

    def test_deterministic_across_workers(self, tmp_path, capsys):
        outs = []
        for workers in ("1", "3"):
            path = tmp_path / f"w{workers}.json"
            code = main(["verify", "--suite", "oracle", "--seed", "12",
                         "--workers", workers, "--out", str(path)])
            capsys.readouterr()
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestPlumbing:
    def test_out_file_identical_to_stdout(self, capsys, square_csv, tmp_path):
        _, out, _ = run_cli(capsys, "depth", "--measure", square_csv,
                            "--point", "0.2,0.1")
        path = tmp_path / "payload.json"
        code = main(["depth", "--measure", square_csv, "--point", "0.2,0.1",
                     "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        assert path.read_text() == out

    @pytest.mark.parametrize("where", ["measure", "out"])
    def test_path_through_a_file_exits_1(self, capsys, square_csv, where):
        # a path that continues below a regular file raises NotADirectoryError
        bad = os.path.join(square_csv, "x.csv")
        measure, out = (bad, None) if where == "measure" else (square_csv, bad)
        argv = ["depth", "--measure", measure, "--point", "0.2,0.1"]
        code, stdout, err = run_cli(capsys, *argv, *(["--out", out] if out else []))
        assert code == 1 and stdout == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "x.csv" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "18446744073709551616"),
        ("--seed", "1.5"),
        ("--samples", "many"),
        ("--workers", "0"),
    ])
    def test_parser_names_the_bad_flag(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", "--suite", "oracle", flag, value)
        assert code == 1 and out == ""
        assert err.startswith(f"error: argument {flag}: ") and len(err.splitlines()) == 1

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_bad_seed_exit_1(self, capsys, square_csv):
        code, _, _ = run_cli(capsys, "contour", "--measure", square_csv,
                             "--alpha", "0.5", "--seed", "-4")
        assert code == 1

    def test_log_env_keeps_stdout_clean(self, square_csv, monkeypatch,
                                        capsys):
        monkeypatch.setenv("LIFTZONOID_LOG", "debug")
        code, out, _ = run_cli(capsys, "depth", "--measure", square_csv,
                               "--point", "0.1,0.1")
        assert code == 0
        json.loads(out)  # payload intact

    def test_log_env_accepts_warning_spelling(self, square_csv, monkeypatch,
                                              capsys, caplog):
        monkeypatch.setenv("LIFTZONOID_LOG", "warning")
        code, _, _ = run_cli(capsys, "depth", "--measure", square_csv,
                             "--point", "0.1,0.1")
        assert code == 0
        assert not [r for r in caplog.records
                    if "LIFTZONOID_LOG" in r.getMessage()]

    def test_log_env_unknown_value_warns(self, square_csv, monkeypatch,
                                         capsys, caplog):
        monkeypatch.setenv("LIFTZONOID_LOG", "loud")
        code, out, _ = run_cli(capsys, "depth", "--measure", square_csv,
                               "--point", "0.1,0.1")
        assert code == 0
        json.loads(out)
        assert [r for r in caplog.records if r.levelno == logging.WARNING
                and "'loud'" in r.getMessage()]



# the flags each subcommand reads, and a command line it accepts
_SOURCE = {"--measure", "--gaussian"}
_OPTIONS = {
    "depth": _SOURCE | {"--out", "--point"},
    "contour": _SOURCE | {"--format", "--out", "--seed", "--alpha", "--directions"},
    "support": _SOURCE | {"--out", "--direction", "--alpha", "--lift-t"},
    "barycenter": _SOURCE | {"--out", "--direction", "--offset"},
    "represent": _SOURCE | {"--out", "--point"},
    "coords": _SOURCE | {"--out", "--point", "--to", "--from", "--scalar", "--direction", "--to-back"},
    "gaussian": {"--out"},
    "polygon2d": _SOURCE | {"--format", "--out"},
    "verify": _SOURCE | {"--out", "--seed", "--workers", "--samples", "--suite"},
}
_ACCEPTED = {
    "depth": ["--point", "0,0"],
    "contour": ["--alpha", "0.5"],
    "support": ["--direction", "1,0"],
    "barycenter": ["--direction", "1,0", "--offset", "0"],
    "represent": ["--point", "0.1,0"],
    "coords": ["--point", "0.1,0", "--to", "depth"],
    "polygon2d": [],
}
_STRAY = [(cmd, flag) for cmd in ("depth", "support", "barycenter", "represent", "coords", "polygon2d")
          for flag in ("--seed", "--samples", "--workers")]
# the record commands print JSON only, and contour runs its directions in one loop
_REMOVED = [(cmd, "--format") for cmd in ("depth", "support", "barycenter", "represent", "coords")]
_REMOVED += [("contour", "--workers")]
_STRAY += [("contour", "--samples"), ("verify", "--format")] + _REMOVED
_STRAY += [("gaussian", flag) for flag in ("--seed", "--samples", "--workers", "--format")]
_VALUES = {"--seed": "1", "--samples": "5", "--workers": "1", "--format": "csv"}


class TestOptionSurface:
    def test_each_subcommand_declares_the_flags_it_reads(self):
        import argparse

        from liftzonoid.cli import build_parser

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {s for a in p._actions if not isinstance(a, argparse._HelpAction) for s in a.option_strings}
            for name, p in sub.choices.items()
        }
        assert declared == _OPTIONS
        assert sum(map(len, declared.values())) == 47

    @pytest.mark.parametrize("command,flag", _STRAY, ids=[f"{c}{f}" for c, f in _STRAY])
    def test_flag_the_subcommand_does_not_read_exits_1(self, capsys, square_csv, command, flag):
        if command == "gaussian":
            argv = ["gaussian", "pdf", "0"]
        elif command == "verify":
            argv = ["verify", "--suite", "theorem1"]
        else:
            argv = [command, "--measure", square_csv, *_ACCEPTED[command]]
        code, out, err = run_cli(capsys, *argv, flag, _VALUES[flag])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert flag in err

    @pytest.mark.parametrize("command,flag", _REMOVED, ids=[f"{c}{f}" for c, f in _REMOVED])
    def test_removed_flag_exits_1_before_the_measure_loads(self, capsys, tmp_path, command, flag):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run_cli(capsys, command, "--measure", missing, *_ACCEPTED[command], flag, _VALUES[flag])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert flag in err and "missing.csv" not in err

    @pytest.mark.parametrize("extra", [["--from", "support"], ["--scalar", "0.5"],
                                       ["--direction", "1,0"], ["--to-back", "depth"]],
                             ids=lambda extra: extra[0])
    def test_coords_point_mode_reads_only_to(self, capsys, square_csv, extra):
        code, out, err = run_cli(capsys, "coords", "--measure", square_csv,
                                 "--point", "0.1,0", "--to", "depth", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert extra[0] in err

    def test_coords_to_back_needs_to(self, capsys, square_csv):
        code, out, err = run_cli(capsys, "coords", "--measure", square_csv, "--from", "support",
                                 "--scalar", "0.5", "--direction", "1,0", "--to-back", "depth")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--to-back" in err and len(err.splitlines()) == 1

    def test_negative_vector_is_a_value(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "depth", "--measure", square_csv, "--point", "-0.1,0.2")
        assert code == 0
        assert out == run_cli(capsys, "depth", "--measure", square_csv, "--point=-0.1,0.2")[1]

    def test_negative_direction_and_minus_inf_offset_are_values(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "barycenter", "--measure", square_csv,
                               "--direction", "-1,0", "--offset", "-inf")
        assert code == 0
        assert json.loads(out) == {"barycenter": [0.0, 0.0], "mass": 1.0}

    def test_minus_inf_positional_is_a_value(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "g", "-inf")
        assert code == 0
        assert out.strip() == "inf"

    def test_unknown_single_dash_flag_still_exits_1(self, capsys, square_csv):
        code, out, err = run_cli(capsys, "depth", "--measure", square_csv, "--point", "0,0", "-x")
        assert code == 1 and out == ""
        assert err == "error: unrecognized arguments: -x\n"


# every record form, with vector and nested values: a depth off the mean, a
# represented half-space, and coords in point mode and in both conversions
_RECORDS = [[cmd, *_ACCEPTED[cmd]] for cmd in ("depth", "support", "barycenter", "represent", "coords")]
_RECORDS += [
    ["depth", "--point", "0.2,0.1"],
    ["represent", "--point", "0.2,0.1"],
    ["coords", "--from", "support", "--scalar", "0.3", "--direction", "1,0", "--to", "offset"],
    ["coords", "--from", "support", "--scalar", "0.3", "--direction", "1,0"],
]


class TestOutputShape:
    @pytest.mark.parametrize("argv", _RECORDS, ids=[" ".join(a) for a in _RECORDS])
    @pytest.mark.parametrize("kind", ["measure", "gaussian"])
    def test_record_is_one_json_document(self, capsys, square_csv, std2_json, kind, argv):
        source = square_csv if kind == "measure" else std2_json
        code, out, err = run_cli(capsys, *argv, f"--{kind}", source)
        assert code == 0 and err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)

    @pytest.mark.parametrize("argv", [["contour", "--alpha", "0.5", "--directions", "12"], ["polygon2d"]],
                             ids=["contour", "polygon2d"])
    def test_table_is_csv_of_one_width(self, capsys, square_csv, argv):
        code, out, err = run_cli(capsys, *argv, "--measure", square_csv, "--format", "csv")
        assert code == 0 and err == ""
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert rows and {len(row) for row in rows} == {len(header)}
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)


# signed zeros, the smallest subnormal, and magnitudes up to overflow: each
# function of the scalar chain answers, or ends with one line and exit 1 or 2
_SCALARS = [s + v for v in ("0", "5e-324", "1e-300", "1e-8", "1", "1e5", "1e8", "1e154", "1e300", "inf")
            for s in ("", "-")] + ["nan"]


class TestGaussianChainSweep:
    @pytest.mark.parametrize("x", _SCALARS)
    @pytest.mark.parametrize("fn", ["pdf", "cdf", "quantile", "isoperimetric", "radius", "g", "ginv"])
    def test_scalar_function_has_no_traceback(self, capsys, fn, x):
        code, out, err = run_cli(capsys, "gaussian", fn, "--", x)
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 0:
            float(out)
        else:
            assert out == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("radius", [f"1e{k}" for k in range(-12, 151, 6)])
    @pytest.mark.parametrize("command", ["depth", "represent"])
    def test_far_point_has_no_traceback(self, capsys, std2_json, command, radius):
        # the whitened radius of (r, 0) under the standard law is r
        code, out, err = run_cli(capsys, command, "--gaussian", std2_json, f"--point={radius},0")
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 0:
            json.loads(out)
        else:
            assert out == "" and len(err.splitlines()) == 1



def _src_env(**extra):
    """The environment for a child interpreter that finds the package under src/."""
    env = {k: v for k, v in os.environ.items() if k != "LIFTZONOID_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def _cli_process(log_level, *argv):
    env = _src_env() if log_level is None else _src_env(LIFTZONOID_LOG=log_level)
    return subprocess.run([sys.executable, "-m", "liftzonoid.cli", *argv],
                          capture_output=True, env=env, timeout=60)


def test_debug_log_reports_stages(square_csv):
    argv = ("support", "--measure", square_csv, "--alpha", "0.5",
            "--direction", "1,0")
    debug = _cli_process("debug", *argv)
    default = _cli_process(None, *argv)
    assert debug.returncode == default.returncode == 0
    assert debug.stdout == default.stdout
    assert default.stderr == b""
    err = debug.stderr.decode()
    for pattern in (r"command: support$", r"measure: empirical n=4 d=2$",
                    r"load: \d+\.\d{3} ms$", r"compute: \d+\.\d{3} ms$"):
        assert re.search(pattern, err, re.MULTILINE), (pattern, err)


def test_debug_log_reports_input_bytes_after_load(square_csv, std2_json):
    err = _cli_process("debug", "support", "--measure", square_csv, "--alpha", "0.5",
                       "--direction", "1,0").stderr.decode()
    lines = err.splitlines()
    load = next(i for i, line in enumerate(lines) if re.search(r"load: \d+\.\d{3} ms$", line))
    assert lines[load + 1].endswith(f"input: {len(SQUARE_CSV)} bytes"), err
    gauss = _cli_process("debug", "support", "--gaussian", std2_json, "--alpha", "0.5",
                         "--direction", "1,0")
    assert gauss.returncode == 0 and b"input:" not in gauss.stderr


def test_csv_not_utf8_exits_1_without_traceback(tmp_path):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"\xff\xfe0,0\n1,0\n")
    proc = _cli_process(None, "depth", "--measure", str(bad), "--point", "0,0")
    err = proc.stderr.decode()
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert err.startswith("error: ") and "latin.csv" in err and len(err.splitlines()) == 1


def test_closed_stdout_exits_141_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "liftzonoid.cli", "verify", "--suite", "theorem1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    proc.stdout.close()  # the reader is gone before the payload is written
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "liftzonoid.cli", "gaussian", "pdf", "0"],
        capture_output=True, text=True, timeout=60, env=_src_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.398942280401433"


_BLOCKABLE_RUN = """\
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import liftzonoid.cli as cli
for argv in json.loads(sys.argv[2]):
    code = cli.main(argv)
    print(f"-- exit {code}", flush=True)
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


def test_commands_run_without_loading_scipy(tmp_path, std2_json):
    csv = tmp_path / "square.csv"
    csv.write_text(SQUARE_CSV)
    sq = ["--measure", str(csv)]
    commands = [
        ["depth", *sq, "--point", "0.2,0.1"],
        ["contour", *sq, "--alpha", "0.5", "--directions", "8"],
        ["support", *sq, "--direction", "1,0", "--alpha", "0.5"],
        ["barycenter", *sq, "--direction", "1,0", "--offset", "0"],
        ["represent", "--gaussian", std2_json, "--point", "0.5,0"],
        ["coords", "--gaussian", std2_json, "--point", "0.5,0", "--to", "offset"],
        ["gaussian", "g", "--", "-3"],
        ["polygon2d", *sq],
        ["verify", "--suite", "theorem1"],
        ["verify", "--suite", "gaussian", "--samples", "1000"],
        ["verify", "--suite", "roundtrip"],
        ["verify", "--suite", "oracle"],
    ]
    runs = {
        mode: subprocess.run([sys.executable, "-c", _BLOCKABLE_RUN, mode, json.dumps(commands)],
                             capture_output=True, timeout=120, env=_src_env())
        for mode in ("blocked", "importable")
    }
    for proc in runs.values():
        assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr
    lines = runs["importable"].stdout.decode().splitlines()
    assert [line for line in lines if line.startswith("-- exit")] == ["-- exit 0"] * len(commands)
    assert lines[-1] == "[]"  # no command loads scipy even where it could
    assert runs["blocked"].stdout == runs["importable"].stdout


def test_startup_does_not_import_scipy_optimize():
    code = "import sys, liftzonoid.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
