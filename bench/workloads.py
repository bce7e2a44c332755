"""The benchmark's four workloads: inputs, operations and output checks.

Every workload is a closed loop with one caller in one process. Inputs
are generated from the seed and written to CSV or JSON; the package sees
only those files. Operation ``i`` of a workload is ``run(i)``; the op
list is long enough that the timed loop normally never wraps, and it is
ordered so that every prefix mixes the workload's cases evenly. Checks
run after timing and compare each result with an independent reference.

The package is reached through the ``liftzonoid`` namespace at call time
(``lz.zonoid_depth``), never through a name copied at import, so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from reference import TailTable

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


def _stratified(k: int, step: float = GOLDEN) -> float:
    """k-th point of an additive recurrence in [0, 1): every prefix is even.

    Two different irrational steps give a two-dimensional stratification.
    """
    return math.modf(k * step + 0.5)[0]


def _write_csv(path: Path, points: np.ndarray, weights: np.ndarray | None = None) -> None:
    if weights is None:
        np.savetxt(path, points, fmt="%.17g", delimiter=",")
        return
    dim = points.shape[1]
    header = ",".join("xyz"[:dim] if dim <= 3 else [f"x{i}" for i in range(dim)]) + ",weight"
    np.savetxt(path, np.column_stack([points, weights]), fmt="%.17g", delimiter=",", header=header, comments="")


def _plane_cloud(seed: int) -> np.ndarray:
    """The uniform-weight 2-D Gaussian cloud that contour and coords share."""
    return np.random.default_rng([seed, 3]).standard_normal((100_000, 2))


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) <= tol))


def _lz():
    import liftzonoid

    return liftzonoid


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    warmup = 0  # operations run and discarded before timing
    trace_ops = 0  # fixed operation count of the traced pass

    def generate(self, seed: int, out: Path) -> dict:
        raise NotImplementedError

    def load(self, out: Path) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError


class Depth(Workload):
    """zonoid_depth on every query, represent on every third (ROADMAP item 2)."""

    name = "depth"
    warmup = 4
    trace_ops = 24
    clouds = (
        ("g2_1000", 2, 1000, "gaussian"),
        ("g2_4000", 2, 4000, "gaussian"),
        ("g5_2000", 5, 2000, "gaussian"),
        ("grid2_2000", 2, 2000, "integer-grid"),
    )
    n_queries = 400
    max_scale = 1.6

    def generate(self, seed, out):
        rng = np.random.default_rng([seed, 1])
        queries = []
        clouds = []
        for name, dim, n, kind in self.clouds:
            if kind == "gaussian":
                pts = rng.standard_normal((n, dim))
            else:  # about 12 duplicated atoms per grid cell
                pts = rng.integers(-6, 7, size=(n, dim)).astype(float)
            _write_csv(out / f"{name}.csv", pts)
            clouds.append(pts)
        # The query cost follows its depth, so both the scale and the atom's
        # outlyingness (its rank by distance from the mean) are stratified.
        by_rank = [pts[np.argsort(np.linalg.norm(pts - pts.mean(axis=0), axis=1), kind="stable")] for pts in clouds]
        for j in range(self.n_queries):
            c, k = j % len(clouds), j // len(clouds)
            pts = by_rank[c]
            mean = pts.mean(axis=0)
            s = self.max_scale * _stratified(k)
            atom = pts[int(_stratified(k, SILVER) * pts.shape[0])]
            queries.append({"cloud": c, "point": (mean + s * (atom - mean)).tolist(), "represent": j % 3 == 0})
        (out / "queries.json").write_text(json.dumps(queries))
        return {
            "clouds": [{"name": nm, "d": d, "n": n, "kind": k, "weights": "uniform"} for nm, d, n, k in self.clouds],
            "queries": self.n_queries,
            "query_scale": [0.0, self.max_scale],
            "represent_every": 3,
        }

    def load(self, out):
        lz = _lz()
        self.measures = [lz.load_measure(str(out / f"{name}.csv")) for name, *_ in self.clouds]
        self.queries = json.loads((out / "queries.json").read_text())

    def run(self, i):
        lz = _lz()
        q = self.queries[i % len(self.queries)]
        mu = self.measures[q["cloud"]]
        cert = lz.zonoid_depth(mu, q["point"])
        rep = None
        if q["represent"]:
            try:
                rep = lz.represent(mu, q["point"])
            except lz.OutsideSupport as exc:
                rep = exc
        return cert, rep

    def check(self, i, result):
        # imported here, not at the top, so that set-up never pays for it on
        # the package's behalf once the package imports it lazily
        import scipy.optimize

        lz = _lz()
        cert, rep = result
        q = self.queries[i % len(self.queries)]
        mu = self.measures[q["cloud"]]
        pts, w = mu.points, mu.weights
        x = np.asarray(q["point"], dtype=float)
        n, dim = pts.shape
        scale = 1.0 + float(np.abs(pts).max())
        lp = scipy.optimize.linprog(
            -np.ones(n),
            A_eq=(pts - x).T,
            b_eq=np.zeros(dim),
            bounds=np.column_stack([np.zeros(n), w]),
            method="highs",
            options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
        )
        if lp.status != 0:
            return False
        reference = min(-float(lp.fun), 1.0)
        if cert.status is lz.DepthStatus.OUTSIDE:
            return reference <= 1e-9 and (rep is None or isinstance(rep, lz.OutsideSupport))
        if abs(cert.depth - reference) > 1e-9:
            return False
        gamma = cert.atom_weights
        if abs(float(gamma.sum()) - 1.0) > 1e-9 or not _close(gamma @ pts, x, 1e-8 * scale):
            return False
        u = cert.dual_direction
        if u is not None and cert.depth < 1.0:
            h = lz.support_trimmed(mu, lz.TrimmedRegionQuery(cert.depth, u))
            if abs(h - float(x @ u.vec)) > 1e-8 * scale:
                return False
        if rep is None:
            return True
        if cert.depth < lz.DEFAULT_TOLS.alpha_floor:
            return isinstance(rep, lz.OutsideSupport)
        if isinstance(rep, Exception) or cert.status is lz.DepthStatus.MEAN:
            return not isinstance(rep, Exception) and rep.alpha == 1.0
        hs = rep.halfspace
        offset = TailTable(pts, w, u.vec).quantile(cert.depth)
        inside = pts @ u.vec >= hs.offset
        bary = w[inside] @ pts[inside] / w[inside].sum()
        return (
            rep.alpha == cert.depth
            and _close(hs.direction.vec, u.vec, 1e-12)
            and abs(hs.offset - offset) <= 1e-12 * scale
            and abs(rep.residual - float(np.linalg.norm(bary - x))) <= 1e-9 * scale
        )


class Contour(Workload):
    """Boundary points and supports over a direction fan (ROADMAP item 3)."""

    name = "contour"
    warmup = 4
    trace_ops = 160
    clouds = (
        ("g2_1e5", 2, 100_000, "uniform"),
        ("w3_1e5", 3, 100_000, "weighted-tied"),
    )
    alphas = (0.1, 0.25, 0.5, 0.75, 0.9)
    n_directions = 90
    kinds = ("boundary", "support")

    def generate(self, seed, out):
        _write_csv(out / "g2_1e5.csv", _plane_cloud(seed))
        rng = np.random.default_rng([seed, 2])
        pts = np.round(rng.standard_normal((100_000, 3)), 1)  # duplicated atoms, so projections tie
        weights = rng.uniform(0.5, 2.0, size=pts.shape[0])
        _write_csv(out / "w3_1e5.csv", pts, weights / weights.sum())
        spec = {"alphas": list(self.alphas), "directions": self.n_directions, "fan_seed": seed}
        (out / "contour.json").write_text(json.dumps(spec))
        return {
            "clouds": [{"name": nm, "d": d, "n": n, "weights": k} for nm, d, n, k in self.clouds],
            "alphas": list(self.alphas),
            "directions": self.n_directions,
        }

    def load(self, out):
        lz = _lz()
        spec = json.loads((out / "contour.json").read_text())
        self.measures = [lz.load_measure(str(out / f"{name}.csv")) for name, *_ in self.clouds]
        self.fans = [lz.direction_grid(mu.dim, spec["directions"], spec["fan_seed"]) for mu in self.measures]
        self.ops = [
            (c, j, a, kind)
            for j in range(spec["directions"])
            for a in spec["alphas"]
            for kind in self.kinds
            for c in range(len(self.measures))
        ]
        self._tables = {}

    def run(self, i):
        lz = _lz()
        c, j, a, kind = self.ops[i % len(self.ops)]
        query = lz.TrimmedRegionQuery(a, lz.Direction(self.fans[c][j]))
        if kind == "boundary":
            return lz.trimmed_boundary_point(self.measures[c], query)
        return lz.support_trimmed(self.measures[c], query)

    def check(self, i, result):
        c, j, a, kind = self.ops[i % len(self.ops)]
        table = self._tables.get((c, j))
        if table is None:
            mu = self.measures[c]
            table = self._tables[(c, j)] = TailTable(mu.points, mu.weights, self.fans[c][j])
        if kind == "boundary":
            return _close(result, table.boundary(a), 1e-9 * table.scale)
        return abs(result - table.support(a)) <= 1e-9 * table.scale


class Coords(Workload):
    """Coordinate changes from support coordinates (ROADMAP item 3)."""

    name = "coords"
    warmup = 3
    trace_ops = 12
    angles = (0.3, 1.9, 3.4, 5.0)
    kinds = ("depth", "offset", "point")
    n_items = 240
    levels = (0.03, 0.97)

    def generate(self, seed, out):
        pts = _plane_cloud(seed)
        _write_csv(out / "g2_1e5.csv", pts)
        weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
        dirs = [np.array([math.cos(t), math.sin(t)]) for t in self.angles]
        tables = [TailTable(pts, weights, u) for u in dirs]
        lo, hi = self.levels
        items = []
        for i in range(self.n_items):
            k = i % len(dirs)
            alpha = lo + (hi - lo) * _stratified(i)
            items.append({"u": dirs[k].tolist(), "support": tables[k].support(alpha), "to": self.kinds[i % 3]})
        (out / "coords.json").write_text(json.dumps(items))
        return {
            "clouds": [{"name": "g2_1e5", "d": 2, "n": pts.shape[0], "weights": "uniform"}],
            "directions": len(self.angles),
            "alphas": list(self.levels),
            "conversions": self.n_items,
        }

    def load(self, out):
        lz = _lz()
        self.mu = lz.load_measure(str(out / "g2_1e5.csv"))
        self.items = json.loads((out / "coords.json").read_text())
        self._tables = {}

    def run(self, i):
        lz = _lz()
        item = self.items[i % len(self.items)]
        coords = lz.BarycentricCoords("support", item["support"], lz.Direction(item["u"]))
        if item["to"] == "point":
            return lz.point_from_coords(self.mu, coords)
        return lz.convert_coords(self.mu, coords, item["to"])

    def check(self, i, result):
        item = self.items[i % len(self.items)]
        key = tuple(item["u"])
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = TailTable(self.mu.points, self.mu.weights, np.asarray(item["u"]))
        alpha = table.alpha_for_support(item["support"])
        if item["to"] == "depth":
            return abs(result.scalar - alpha) <= 1e-9
        if item["to"] == "offset":
            return abs(result.scalar - table.quantile(alpha)) <= 1e-12 * table.scale
        return _close(result, table.boundary(alpha), 1e-8 * table.scale)


def _approx_equal(a, b, rel: float = 1e-12) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_approx_equal(a[k], b[k], rel) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_approx_equal(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None or isinstance(a, str):
        return a == b
    return abs(float(a) - float(b)) <= rel * (1.0 + abs(float(b)))


def _vec(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliSession(Workload):
    """Fixed script of fresh ``python -m liftzonoid.cli`` processes (ROADMAP item 1)."""

    name = "cli-session"
    warmup = 3
    trace_ops = 14
    n_cloud = 200
    verify_samples = 200_000

    def __init__(self, root: Path, env: dict):
        self.root = root
        self.env = env
        self.in_process = False

    def generate(self, seed, out):
        rng = np.random.default_rng([seed, 4])
        cloud = rng.standard_normal((self.n_cloud, 2))
        _write_csv(out / "cloud.csv", cloud)
        a = rng.standard_normal((2, 2))
        law = {"mean": rng.standard_normal(2).tolist(), "covariance": (a @ a.T + 0.5 * np.eye(2)).tolist()}
        (out / "gauss.json").write_text(json.dumps(law))
        c, g = str(out / "cloud.csv"), str(out / "gauss.json")
        mean = cloud.mean(axis=0)
        inner = _fmt(mean + 0.4 * (cloud[int(rng.integers(self.n_cloud))] - mean))
        gpoint = _fmt(np.asarray(law["mean"]) + rng.uniform(0.3, 1.5) * rng.standard_normal(2))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        u = _fmt([math.cos(theta), math.sin(theta)])
        # slow verify suites are spread out so every prefix of the script mixes them in;
        # "--flag=value" keeps argparse from reading a negative value as a flag
        script = [
            ["gaussian", "radius", repr(float(rng.uniform(0.05, 0.95)))],
            ["depth", f"--measure={c}", f"--point={inner}"],
            ["verify", "--suite=roundtrip"],
            ["contour", f"--measure={c}", "--alpha=0.25", "--directions=64"],
            ["support", f"--measure={c}", f"--direction={u}", "--alpha=0.5"],
            ["verify", "--suite=gaussian", f"--samples={self.verify_samples}"],
            ["barycenter", f"--measure={c}", f"--direction={u}", f"--offset={rng.uniform(-0.5, 0.5)!r}"],
            ["represent", f"--gaussian={g}", f"--point={gpoint}"],
            ["coords", f"--gaussian={g}", f"--point={gpoint}", "--to=offset"],
            ["verify", "--suite=theorem1"],
            ["coords", f"--gaussian={g}", "--from=support", f"--scalar={law['mean'][0] + 0.5!r}",
             "--direction=1,0", "--to=depth", "--to-back=support"],
            ["polygon2d", f"--measure={c}"],
            ["depth", f"--gaussian={g}", f"--point={gpoint}"],
            ["support", f"--gaussian={g}", f"--direction={u}", "--lift-t=0.25"],
        ]
        (out / "script.json").write_text(json.dumps(script))
        return {
            "clouds": [{"name": "cloud", "d": 2, "n": self.n_cloud, "weights": "uniform"}, {"name": "gauss", "d": 2}],
            "commands": len(script),
            "verify_samples": self.verify_samples,
            "alphas": [0.25, 0.5],
            "directions": 64,
        }

    def load(self, out):
        lz = _lz()
        import liftzonoid.cli  # noqa: F401  (what every command imports)

        self.cloud = lz.load_measure(str(out / "cloud.csv"))
        self.law = lz.load_measure(None, str(out / "gauss.json"))
        self.script = json.loads((out / "script.json").read_text())
        self._expected = {}

    def run(self, i):
        argv = self.script[i % len(self.script)]
        if self.in_process:
            import liftzonoid.cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = liftzonoid.cli.main(list(argv))
            return code, out.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "liftzonoid.cli", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def _expect(self, argv):
        """The payload the in-process API gives for one command line."""
        lz = _lz()
        opt = dict(a.split("=", 1) for a in argv if a.startswith("--"))
        mu = self.cloud if "--measure" in opt else self.law
        cmd = argv[0]
        if cmd == "gaussian":
            return "%.15g" % getattr(lz, argv[1])(float(argv[2]))
        if cmd == "depth" and mu is self.cloud:
            return lz.zonoid_depth(mu, _vec(opt["--point"])).to_json_dict()
        if cmd == "depth":
            return {"depth": lz.gaussian_depth(mu, _vec(opt["--point"]))}
        if cmd == "contour":
            alpha = float(opt["--alpha"])
            dirs = lz.direction_grid(mu.dim, int(opt["--directions"]), seed=0)
            pts = [lz.trimmed_boundary_point(mu, lz.TrimmedRegionQuery(alpha, lz.Direction(r))) for r in dirs]
            return {
                "alpha": alpha,
                "seed": 0,
                "n_directions": len(dirs),
                "directions": dirs.tolist(),
                "boundary": [p.tolist() for p in pts],
            }
        if cmd == "support" and "--lift-t" in opt:
            lift = lz.LiftDirection.of(float(opt["--lift-t"]), _vec(opt["--direction"]))
            return {"support": lz.support_lift_zonoid(mu, lift)}
        if cmd == "support":
            query = lz.TrimmedRegionQuery(float(opt["--alpha"]), lz.Direction.of(_vec(opt["--direction"])))
            return {"support": lz.support_trimmed(mu, query)}
        if cmd == "barycenter":
            hs = lz.HalfSpace(lz.Direction.of(_vec(opt["--direction"])), float(opt["--offset"]))
            return {"barycenter": mu.halfspace_barycenter(hs).tolist(), "mass": mu.halfspace_mass(hs)}
        if cmd == "represent":
            return lz.represent(mu, _vec(opt["--point"])).to_json_dict()
        if cmd == "coords" and "--point" in opt:
            return lz.coords_from_point(mu, _vec(opt["--point"]), opt["--to"]).to_json_dict()
        if cmd == "coords":
            coords = lz.BarycentricCoords(opt["--from"], float(opt["--scalar"]), lz.Direction.of(_vec(opt["--direction"])))
            coords = lz.convert_coords(mu, lz.convert_coords(mu, coords, opt["--to"]), opt["--to-back"])
            return coords.to_json_dict()
        if cmd == "polygon2d":
            return {"vertices": lz.zonotope_polygon_2d(mu).vertices.tolist()}
        if cmd == "verify":
            samples = int(opt.get("--samples", 1_000_000))
            return lz.run_suite(opt["--suite"], seed=0, samples=samples)
        raise ValueError(f"no expected payload for {argv}")

    def check(self, i, result):
        code, stdout = result
        argv = self.script[i % len(self.script)]
        key = i % len(self.script)
        if key not in self._expected:
            self._expected[key] = self._expect(argv)
        expected = self._expected[key]
        if code != 0:
            return False
        if isinstance(expected, str):
            return stdout.strip() == expected
        payload = json.loads(stdout)
        if argv[0] == "verify" and payload.get("passed") is not True:
            return False
        return _approx_equal(payload, expected)


def make(name: str, root: Path, env: dict) -> Workload:
    if name == "cli-session":
        return CliSession(root, env)
    return {"depth": Depth, "contour": Contour, "coords": Coords}[name]()


NAMES = ("depth", "contour", "coords", "cli-session")
