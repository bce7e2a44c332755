"""Command-line interface.

Subcommands: depth, contour, support, barycenter, represent, coords,
gaussian, polygon2d, verify. Measures come from --measure CSV files or
--gaussian JSON specs. Every randomized code path is driven by --seed
through counter-based per-task streams, so output is byte-identical
across runs and across --workers values.

Exit codes: 0 success, 1 malformed input, 2 domain condition (outside
support, zero mass, mean point, no solution), 3 verification failure,
141 stdout closed by its reader (as a shell reports death by SIGPIPE).
Log verbosity comes from the LIFTZONOID_LOG environment variable
(error, warn or warning, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .barycentric import (
    BarycentricCoords,
    CoordKind,
    convert_coords,
    coords_from_point,
    point_from_coords,
    represent,
)
from .depth import DepthStatus, zonoid_depth
from .errors import (
    DegenerateMeasure,
    DomainError,
    DimensionMismatch,
    InputFormatError,
    LiftZonoidError,
    MeanPoint,
    NoDual,
    NonFinite,
    NoSolution,
    NotConverged,
    OutsideSupport,
    TooLarge,
    ZeroMass,
)
from .gaussian import (
    g_inverse,
    g_ratio,
    gaussian_depth,
    isoperimetric,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    radius,
)
from .measures import Direction, EmpiricalMeasure, GaussianMeasure, HalfSpace, load_measure
from .sampling import direction_grid
from .verify import SUITES, _map_tasks, run_suite
from .zonoid import (
    LiftDirection,
    TrimmedRegionQuery,
    support_lift_zonoid,
    support_trimmed,
    support_zonoid,
    trimmed_boundary_point,
    zonotope_polygon_2d,
)

log = logging.getLogger("liftzonoid.cli")

_INPUT_ERRORS = (
    InputFormatError,
    DomainError,
    DimensionMismatch,
    NonFinite,
    DegenerateMeasure,
    TooLarge,
    FileNotFoundError,
    IsADirectoryError,
)
_DOMAIN_ERRORS = (OutsideSupport, ZeroMass, MeanPoint, NoSolution, NoDual, NotConverged)
_EXIT_BROKEN_PIPE = 141

_GAUSS_FNS = {
    "pdf": normal_pdf,
    "cdf": normal_cdf,
    "quantile": normal_quantile,
    "isoperimetric": isoperimetric,
    "radius": radius,
    "g": g_ratio,
    "ginv": g_inverse,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters shared by the subcommands."""

    measure_path: str | None = None
    gaussian_path: str | None = None
    seed: int = 0
    samples: int = 1_000_000
    workers: int = 1
    fmt: str = "json"
    out: str | None = None
    residual_tol: float | None = None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; we reserve 2 for domain
        raise InputFormatError(message)


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InputFormatError(f"cannot parse {name} {text!r}: {exc}") from exc


def _parse_offset(text: str) -> float:
    if text.strip() == "-inf":
        return -math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise InputFormatError(f"cannot parse offset {text!r}") from exc


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)  # a closed pipe must fail here, not at exit


def _emit_dict(cfg: RunConfig, payload: dict) -> None:
    if cfg.fmt == "csv":
        lines = [f"{key},{json.dumps(value)}" for key, value in payload.items()]
        _emit(cfg, "\n".join(lines))
    else:
        _emit(cfg, json.dumps(payload))


def _axis_names(dim: int, prefix: str) -> list[str]:
    if dim <= 3:
        return [prefix + s for s in "xyz"[:dim]]
    return [f"{prefix}{i}" for i in range(dim)]


def _load(cfg: RunConfig):
    return load_measure(cfg.measure_path, cfg.gaussian_path)


def cmd_depth(cfg: RunConfig, args) -> int:
    mu = _load(cfg)
    x = _parse_vector(args.point, "--point")
    if isinstance(mu, GaussianMeasure):
        _emit_dict(cfg, {"depth": gaussian_depth(mu, x)})
        return 0
    cert = zonoid_depth(mu, x)
    _emit_dict(cfg, cert.to_json_dict())
    return 2 if cert.status is DepthStatus.OUTSIDE else 0


def cmd_contour(cfg: RunConfig, args) -> int:
    mu = _load(cfg)
    if args.directions < 4:
        raise InputFormatError("--directions must be at least 4")
    alpha = float(args.alpha)
    dirs = direction_grid(mu.dim, args.directions, seed=cfg.seed)

    def one(row):
        return trimmed_boundary_point(mu, TrimmedRegionQuery(alpha, Direction(row)))

    points = _map_tasks(one, list(dirs), cfg.workers)
    if cfg.fmt == "csv":
        header = ["alpha"] + _axis_names(mu.dim, "u") + _axis_names(mu.dim, "b")
        lines = [",".join(header)]
        for row, b in zip(dirs, points):
            cells = [repr(alpha)] + [repr(float(v)) for v in row] + [repr(float(v)) for v in b]
            lines.append(",".join(cells))
        _emit(cfg, "\n".join(lines))
    else:
        payload = {
            "alpha": alpha,
            "seed": cfg.seed,
            "n_directions": args.directions,
            "directions": [list(map(float, r)) for r in dirs],
            "boundary": [list(map(float, b)) for b in points],
        }
        _emit(cfg, json.dumps(payload))
    return 0


def cmd_support(cfg: RunConfig, args) -> int:
    mu = _load(cfg)
    u = _parse_vector(args.direction, "--direction")
    if args.lift_t is not None and args.alpha is not None:
        raise InputFormatError("--alpha and --lift-t are mutually exclusive")
    if args.lift_t is not None:
        value = support_lift_zonoid(mu, LiftDirection.of(args.lift_t, u))
    elif args.alpha is not None:
        value = support_trimmed(mu, TrimmedRegionQuery(float(args.alpha), Direction.of(u)))
    else:
        value = support_zonoid(mu, Direction.of(u))
    _emit_dict(cfg, {"support": value})
    return 0


def cmd_barycenter(cfg: RunConfig, args) -> int:
    mu = _load(cfg)
    hs = HalfSpace(
        Direction.of(_parse_vector(args.direction, "--direction")),
        _parse_offset(args.offset),
    )
    bary = mu.halfspace_barycenter(hs)
    payload = {"barycenter": [float(v) for v in bary], "mass": mu.halfspace_mass(hs)}
    _emit_dict(cfg, payload)
    return 0


def cmd_represent(cfg: RunConfig, args) -> int:
    mu = _load(cfg)
    x = _parse_vector(args.point, "--point")
    result = represent(mu, x, refine=args.refine, residual_tol=cfg.residual_tol)
    _emit_dict(cfg, result.to_json_dict())
    return 0


def cmd_coords(cfg: RunConfig, args) -> int:
    mu = _load(cfg)
    if args.point is not None:
        if args.to is None:
            raise InputFormatError("--point requires --to with the target form")
        coords = coords_from_point(mu, _parse_vector(args.point, "--point"), args.to)
        _emit_dict(cfg, coords.to_json_dict())
        return 0
    if args.from_ is None:
        raise InputFormatError("coords needs either --point --to or --from --scalar --direction")
    if args.scalar is None or args.direction is None:
        raise InputFormatError("--from requires --scalar and --direction")
    coords = BarycentricCoords(
        kind=CoordKind(args.from_),
        scalar=_parse_offset(args.scalar),
        direction=Direction.of(_parse_vector(args.direction, "--direction")),
    )
    if args.to is None:
        point = point_from_coords(mu, coords)
        _emit_dict(cfg, {"point": [float(v) for v in point]})
        return 0
    coords = convert_coords(mu, coords, args.to)
    if args.to_back is not None:
        coords = convert_coords(mu, coords, args.to_back)
    _emit_dict(cfg, coords.to_json_dict())
    return 0


def cmd_gaussian(cfg: RunConfig, args) -> int:
    fn = _GAUSS_FNS.get(args.fn)
    if fn is None:
        raise InputFormatError(
            f"unknown function {args.fn!r}; choose from {', '.join(sorted(_GAUSS_FNS))}"
        )
    try:
        value = float(args.x)
    except ValueError as exc:
        raise InputFormatError(f"cannot parse argument {args.x!r}") from exc
    _emit(cfg, "%.15g" % fn(value))
    return 0


def cmd_polygon2d(cfg: RunConfig, args) -> int:
    mu = _load(cfg)
    if not isinstance(mu, EmpiricalMeasure):
        raise InputFormatError("polygon2d needs an empirical measure (--measure)")
    poly = zonotope_polygon_2d(mu)
    if cfg.fmt == "csv":
        lines = ["x,y"] + [f"{v[0]!r},{v[1]!r}" for v in poly.vertices.tolist()]
        _emit(cfg, "\n".join(lines))
    else:
        _emit(cfg, json.dumps({"vertices": poly.vertices.tolist()}))
    return 0


def cmd_verify(cfg: RunConfig, args) -> int:
    measure = None
    if cfg.measure_path or cfg.gaussian_path:
        measure = _load(cfg)
    report = run_suite(
        args.suite,
        measure=measure,
        seed=cfg.seed,
        samples=cfg.samples,
        workers=cfg.workers,
    )
    _emit(cfg, json.dumps(report))
    return 0 if report["passed"] else 3


_COMMANDS = {
    "depth": cmd_depth,
    "contour": cmd_contour,
    "support": cmd_support,
    "barycenter": cmd_barycenter,
    "represent": cmd_represent,
    "coords": cmd_coords,
    "gaussian": cmd_gaussian,
    "polygon2d": cmd_polygon2d,
    "verify": cmd_verify,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="liftzonoid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    src = _Parser(add_help=False)
    src.add_argument("--measure", help="CSV file of atoms (optional weight column)")
    src.add_argument("--gaussian", help="JSON file with mean and covariance")

    run = _Parser(add_help=False)
    run.add_argument("--seed", type=int, default=0, help="64-bit unsigned RNG seed")
    run.add_argument("--samples", type=int, default=1_000_000)
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--format", choices=("json", "csv"), default="json")
    run.add_argument("--out", help="write the payload to this file instead of stdout")

    p = sub.add_parser("depth", parents=[src, run], help="zonoid depth certificate")
    p.add_argument("--point", required=True, help="comma-separated coordinates")

    p = sub.add_parser("contour", parents=[src, run], help="trimmed-region boundary sweep")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--directions", type=int, default=64)

    p = sub.add_parser("support", parents=[src, run], help="support function values")
    p.add_argument("--direction", required=True)
    p.add_argument("--alpha", type=float, help="trimmed-region level")
    p.add_argument("--lift-t", type=float, dest="lift_t", help="lift coordinate t")

    p = sub.add_parser("barycenter", parents=[src, run], help="half-space barycenter")
    p.add_argument("--direction", required=True)
    p.add_argument("--offset", required=True, help="half-space offset (--offset=-inf selects the whole space)")

    p = sub.add_parser("represent", parents=[src, run], help="half-space representation")
    p.add_argument("--point", required=True)
    p.add_argument("--refine", action="store_true", help="one Gauss-Newton polish step")
    p.add_argument("--residual-tol", type=float, dest="residual_tol")

    p = sub.add_parser("coords", parents=[src, run], help="barycentric coordinate forms")
    p.add_argument("--point")
    p.add_argument("--to", choices=[k.value for k in CoordKind])
    p.add_argument("--from", dest="from_", choices=[k.value for k in CoordKind])
    p.add_argument("--scalar")
    p.add_argument("--direction")
    p.add_argument("--to-back", dest="to_back", choices=[k.value for k in CoordKind])

    p = sub.add_parser("gaussian", parents=[run], help="scalar Gaussian functions")
    p.add_argument("fn", help="pdf|cdf|quantile|isoperimetric|radius|g|ginv")
    p.add_argument("x", help="argument value")

    sub.add_parser("polygon2d", parents=[src, run], help="zonotope polygon vertices")

    p = sub.add_parser("verify", parents=[src, run], help="run a verification suite")
    p.add_argument("--suite", required=True, help="|".join(SUITES))

    return parser


def _configure_logging() -> None:
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    raw = os.environ.get("LIFTZONOID_LOG", "warn").strip().lower()
    logging.basicConfig(
        level=levels.get(raw, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if raw not in levels:
        log.warning("unknown LIFTZONOID_LOG value %r; using warn", raw)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        seed = int(getattr(args, "seed", 0))
        if not 0 <= seed < 2**64:
            raise InputFormatError(f"--seed {seed} outside the unsigned 64-bit range")
        samples = int(getattr(args, "samples", 1_000_000))
        if samples < 1:
            raise InputFormatError(f"--samples {samples} must be at least 1")
        cfg = RunConfig(
            measure_path=getattr(args, "measure", None),
            gaussian_path=getattr(args, "gaussian", None),
            seed=seed,
            samples=samples,
            workers=max(1, int(getattr(args, "workers", 1))),
            fmt=getattr(args, "format", "json"),
            out=getattr(args, "out", None),
            residual_tol=getattr(args, "residual_tol", None),
        )
        return _COMMANDS[args.command](cfg, args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"domain condition: {exc}", file=sys.stderr)
        return 2
    except LiftZonoidError as exc:  # remaining package errors are input-shaped
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # stdout is not backed by a descriptor
            pass
        finally:
            os.close(devnull)
        return _EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
