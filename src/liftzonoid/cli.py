"""Command-line interface.

Subcommands: depth, contour, support, barycenter, represent, coords,
gaussian, polygon2d, verify. Measures come from --measure CSV files or
--gaussian JSON specs. Records (depth, support, barycenter, represent,
coords) print as one JSON document; contour and polygon2d print JSON or,
with --format csv, a table. Every randomized code path is driven by
--seed through counter-based per-task streams, so output is
byte-identical across runs and across verify's --workers values.

Exit codes: 0 success, 1 malformed input (bad flags, files that cannot
be read or written, any other package error), 2 domain condition
(outside support, a Gaussian depth that underflows to 0, zero mass,
mean point, no solution), 3 verification
failure, 141 stdout closed by its reader (as a shell reports death by
SIGPIPE). Log verbosity comes from the LIFTZONOID_LOG environment
variable (error, warn or warning, info, debug).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
import time

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
from .errors import DomainCondition, InputFormatError, LiftZonoidError, OutsideSupport
from .gaussian import gaussian_depth
from .measures import Direction, EmpiricalMeasure, GaussianMeasure, HalfSpace, Measure, load_measure
from .normal import (
    g_inverse,
    g_ratio,
    isoperimetric,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    radius,
)
from .sampling import direction_grid
from .verify import SAMPLED_SUITES, SUITES, run_suite
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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token such as -0.1,0.2 or -inf is a value, not an unknown flag
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf)")

    def error(self, message):  # argparse would exit 2; we reserve 2 for domain
        raise InputFormatError(message)


def _vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r}: {exc}") from exc


def _int_in(low: int, high: float, what: str):
    """argparse type: an integer in [low, high); ``what`` says the range."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse integer {text!r}") from None
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"{value} {what}")
        return value

    return parse


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)  # a closed pipe must fail here, not at exit


def _table(args, header: list[str], rows) -> None:
    """Emit a CSV table: the header, then one line of float cells per row."""
    lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
    _emit(args, "\n".join(lines))


def _axis_names(dim: int, prefix: str) -> list[str]:
    if dim <= 3:
        return [prefix + s for s in "xyz"[:dim]]
    return [f"{prefix}{i}" for i in range(dim)]


def _load(measure_path: str | None, gaussian_path: str | None) -> Measure:
    start = time.perf_counter()
    mu = load_measure(measure_path, gaussian_path)
    if isinstance(mu, EmpiricalMeasure):
        log.debug("measure: empirical n=%d d=%d", mu.size, mu.dim)
    else:
        log.debug("measure: gaussian d=%d", mu.dim)
    log.debug("load: %.3f ms", 1e3 * (time.perf_counter() - start))
    if measure_path is not None:
        log.debug("input: %d bytes", os.path.getsize(measure_path))
    return mu


def cmd_depth(args, mu: Measure) -> int:
    if isinstance(mu, GaussianMeasure):
        depth = gaussian_depth(mu, args.point)
        if depth == 0.0:
            raise OutsideSupport("depth underflows to 0: the point lies past every representable trimmed region")
        _emit(args, json.dumps({"depth": depth}))
        return 0
    cert = zonoid_depth(mu, args.point)
    _emit(args, json.dumps(cert.to_json_dict()))
    return 2 if cert.status is DepthStatus.OUTSIDE else 0


def cmd_contour(args, mu: Measure) -> int:
    dirs = direction_grid(mu.dim, args.directions, seed=args.seed)
    points = [trimmed_boundary_point(mu, TrimmedRegionQuery(args.alpha, Direction(row))) for row in dirs]
    if args.format == "csv":
        header = ["alpha"] + _axis_names(mu.dim, "u") + _axis_names(mu.dim, "b")
        _table(args, header, ([args.alpha, *row, *b] for row, b in zip(dirs, points)))
    else:
        payload = {
            "alpha": args.alpha,
            "seed": args.seed,
            "n_directions": args.directions,
            "directions": [list(map(float, r)) for r in dirs],
            "boundary": [list(map(float, b)) for b in points],
        }
        _emit(args, json.dumps(payload))
    return 0


def cmd_support(args, mu: Measure) -> int:
    if args.lift_t is not None:
        value = support_lift_zonoid(mu, LiftDirection.of(args.lift_t, args.direction))
    elif args.alpha is not None:
        value = support_trimmed(mu, TrimmedRegionQuery(args.alpha, Direction.of(args.direction)))
    else:
        value = support_zonoid(mu, Direction.of(args.direction))
    _emit(args, json.dumps({"support": value}))
    return 0


def cmd_barycenter(args, mu: Measure) -> int:
    hs = HalfSpace(Direction.of(args.direction), args.offset)
    bary = mu.halfspace_barycenter(hs)
    _emit(args, json.dumps({"barycenter": [float(v) for v in bary], "mass": mu.halfspace_mass(hs)}))
    return 0


def cmd_represent(args, mu: Measure) -> int:
    _emit(args, json.dumps(represent(mu, args.point).to_json_dict()))
    return 0


def cmd_coords(args, mu: Measure) -> int:
    if args.point is not None:
        for flag, value in (("--scalar", args.scalar), ("--direction", args.direction),
                            ("--to-back", args.to_back)):
            if value is not None:
                raise InputFormatError(f"argument {flag}: not allowed with argument --point")
        if args.to is None:
            raise InputFormatError("--point requires --to with the target form")
        _emit(args, json.dumps(coords_from_point(mu, args.point, args.to).to_json_dict()))
        return 0
    if args.scalar is None or args.direction is None:
        raise InputFormatError("--from requires --scalar and --direction")
    coords = BarycentricCoords(
        kind=CoordKind(args.from_), scalar=args.scalar, direction=Direction.of(args.direction)
    )
    if args.to is None:
        if args.to_back is not None:
            raise InputFormatError("argument --to-back: requires --to")
        _emit(args, json.dumps({"point": [float(v) for v in point_from_coords(mu, coords)]}))
        return 0
    coords = convert_coords(mu, coords, args.to)
    if args.to_back is not None:
        coords = convert_coords(mu, coords, args.to_back)
    _emit(args, json.dumps(coords.to_json_dict()))
    return 0


def cmd_gaussian(args, mu) -> int:
    _emit(args, "%.15g" % _GAUSS_FNS[args.fn](args.x))
    return 0


def cmd_polygon2d(args, mu: Measure) -> int:
    if not isinstance(mu, EmpiricalMeasure):
        raise InputFormatError("polygon2d needs an empirical measure (--measure)")
    poly = zonotope_polygon_2d(mu)
    if args.format == "csv":
        _table(args, ["x", "y"], poly.vertices)
    else:
        _emit(args, json.dumps({"vertices": poly.vertices.tolist()}))
    return 0


def cmd_verify(args, mu: Measure | None) -> int:
    sampled = {} if args.samples is None else {"samples": args.samples}
    if sampled and args.suite not in SAMPLED_SUITES:
        raise InputFormatError(f"argument --samples: the {args.suite} suite draws no samples")
    report = run_suite(args.suite, measure=mu, seed=args.seed, workers=args.workers, **sampled)
    _emit(args, json.dumps(report))
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

    out = _Parser(add_help=False)
    out.add_argument("--out", help="write the payload to this file instead of stdout")
    table = _Parser(add_help=False, parents=[out])
    table.add_argument("--format", choices=("json", "csv"), default="json")

    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_int_in(0, 2**64, "outside the unsigned 64-bit range"),
                        default=0, help="64-bit unsigned RNG seed")

    p = sub.add_parser("depth", parents=[src, out], help="zonoid depth certificate")
    p.add_argument("--point", type=_vector, required=True, help="comma-separated coordinates")

    p = sub.add_parser("contour", parents=[src, table, seeded], help="trimmed-region boundary sweep")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--directions", type=_int_in(4, math.inf, "must be at least 4"), default=64)

    p = sub.add_parser("support", parents=[src, out], help="support function values")
    p.add_argument("--direction", type=_vector, required=True)
    level = p.add_mutually_exclusive_group()
    level.add_argument("--alpha", type=float, help="trimmed-region level")
    level.add_argument("--lift-t", type=float, dest="lift_t", help="lift coordinate t")

    p = sub.add_parser("barycenter", parents=[src, out], help="half-space barycenter")
    p.add_argument("--direction", type=_vector, required=True)
    p.add_argument("--offset", type=float, required=True,
                   help="half-space offset (-inf selects the whole space)")

    p = sub.add_parser("represent", parents=[src, out], help="half-space representation")
    p.add_argument("--point", type=_vector, required=True)

    kinds = [k.value for k in CoordKind]
    p = sub.add_parser("coords", parents=[src, out], help="barycentric coordinate forms")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--point", type=_vector, help="point mode: reads --to alone")
    mode.add_argument("--from", dest="from_", choices=kinds,
                      help="conversion mode: reads --scalar, --direction, --to, --to-back")
    p.add_argument("--to", choices=kinds)
    p.add_argument("--scalar", type=float)
    p.add_argument("--direction", type=_vector)
    p.add_argument("--to-back", dest="to_back", choices=kinds)

    p = sub.add_parser("gaussian", parents=[out], help="scalar Gaussian functions")
    p.add_argument("fn", choices=list(_GAUSS_FNS))
    p.add_argument("x", type=float, help="argument value")
    p.set_defaults(measure=None, gaussian=None)

    sub.add_parser("polygon2d", parents=[src, table], help="zonotope polygon vertices")

    p = sub.add_parser("verify", parents=[src, out, seeded], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    at_least_one = _int_in(1, math.inf, "must be at least 1")
    p.add_argument("--samples", type=at_least_one)
    p.add_argument("--workers", type=at_least_one, default=1)

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
    try:
        args = build_parser().parse_args(argv)
        log.debug("command: %s", args.command)
        mu = None
        # every command but gaussian and verify needs a measure
        if args.measure or args.gaussian or args.command not in ("gaussian", "verify"):
            mu = _load(args.measure, args.gaussian)
        start = time.perf_counter()
        code = _COMMANDS[args.command](args, mu)
        log.debug("compute: %.3f ms", 1e3 * (time.perf_counter() - start))
        return code
    except DomainCondition as exc:
        print(f"domain condition: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # an OSError too, so it must come first
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
    except (LiftZonoidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
