"""Command-line interface: payloads, exit codes, determinism.

Tests drive main(argv) in-process; one smoke test exercises the installed
console script through a real subprocess.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from liftzonoid.cli import main

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

    def test_residual_tol_exit_2(self, capsys, two_atom_csv):
        code, _, err = run_cli(capsys, "represent", "--measure", two_atom_csv,
                               "--point", "0.5", "--residual-tol", "1e-9")
        assert code == 2
        assert err


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


class TestPolygonCommand:
    def test_square(self, capsys, square_csv):
        code, out, _ = run_cli(capsys, "polygon2d", "--measure", square_csv)
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == [[0.0, -0.5], [0.5, 0.0],
                                       [0.0, 0.5], [-0.5, 0.0]]

    def test_wrong_dimension_exit_1(self, capsys, tmp_path):
        p = tmp_path / "three.csv"
        p.write_text("0,0,0\n1,1,1\n2,0,1\n")
        code, _, _ = run_cli(capsys, "polygon2d", "--measure", str(p))
        assert code == 1


class TestVerifyCommand:
    def test_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "oracle",
                               "--seed", "3", "--samples", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_1(self, capsys, samples):
        code, out, err = run_cli(capsys, "verify", "--suite", "gaussian",
                                 "--samples", samples)
        assert code == 1
        assert out == ""
        assert "--samples" in err

    def test_unknown_suite_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "wat")
        assert code == 1

    def test_deterministic_across_workers(self, tmp_path, capsys):
        outs = []
        for workers in ("1", "3"):
            path = tmp_path / f"w{workers}.json"
            code = main(["verify", "--suite", "oracle", "--seed", "12",
                         "--samples", "1000", "--workers", workers,
                         "--out", str(path)])
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

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_no_command_exit_1(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_bad_seed_exit_1(self, capsys, square_csv):
        code, _, _ = run_cli(capsys, "depth", "--measure", square_csv,
                             "--point", "0,0", "--seed", "-4")
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


def test_closed_stdout_exits_141_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "liftzonoid.cli", "verify", "--suite", "theorem1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
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
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.398942280401433"
