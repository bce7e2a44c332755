"""Command-line interface: payloads, exit codes, determinism.

Tests drive main(argv) in-process; one smoke test exercises the installed
console script through a real subprocess.
"""

import json
import os
import re
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


    def test_singular_basis_on_a_near_flat_cloud_exits_2(self, capsys, tmp_path):
        # the 248th cloud of a near-flat fuzz (n = 9, d = 5, thickness 4.6e-8):
        # the depth LP at the midpoint of its first two atoms meets a basis
        # that is singular to working precision
        rng = np.random.default_rng(7)
        for _ in range(248):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(d + 2, 40))
            s = 10 ** rng.uniform(-10.5, -6)
            a = rng.standard_normal((n, d))
            sc = np.ones(d)
            sc[-1] = s
            r = np.linalg.qr(rng.standard_normal((d, d)))[0]
            pts = (a * sc) @ r.T
        p = tmp_path / "flat.csv"
        p.write_text("".join(",".join(map(repr, row)) + "\n" for row in pts.tolist()))
        point = ",".join(map(repr, (0.5 * (pts[0] + pts[1])).tolist()))
        code, out, err = run_cli(capsys, "depth", "--measure", str(p), f"--point={point}")
        assert code == 2 and out == ""
        assert err.startswith("domain condition: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err


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



def _cli_process(log_level, *argv):
    env = {k: v for k, v in os.environ.items() if k != "LIFTZONOID_LOG"}
    if log_level is not None:
        env["LIFTZONOID_LOG"] = log_level
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


def test_commands_run_without_loading_scipy(tmp_path):
    csv = tmp_path / "square.csv"
    csv.write_text(SQUARE_CSV)
    code = (
        "import json, sys, liftzonoid.cli as cli\n"
        "codes = [cli.main(argv) for argv in (\n"
        "    ['gaussian', 'g', '--', '-3'],\n"
        f"    ['depth', '--measure', {str(csv)!r}, '--point', '0.2,0.1'],\n"
        "    ['verify', '--suite=gaussian', '--samples=1000'])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.split('.')[0] == 'scipy')]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert scipy_modules == []


def test_startup_does_not_import_scipy_optimize():
    code = "import sys, liftzonoid.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
