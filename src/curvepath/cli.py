"""Command-line surface: every subcommand emits machine-readable output.

JSON results embed the resolved run configuration, so any output can be
reproduced from itself. Exit codes: 0 success, 1 numerical/domain failure
(with a diagnostic JSON on stdout), 2 usage error. Floats serialize via
shortest round-trip repr (up to 17 significant digits), which is lossless.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .ecp import (QuadratureGrid, boltzmann, partition_function, seeley_density,
                  sphere_geometry, sphere_route_partition)
from .geometry import (GeometryError, PointGeometry, geometry_blocks, point_geometry,
                       vector_divergence)
from .metrics import BUILTIN_NAMES, MetricError, builtin, parse_metric
from .montecarlo import mc_boltzmann
from .propagator import CounterPolynomial, PeriodicPropagator
from .verify import SUITES, run_suite
from .wick import EngineError, RouteError

_GRID_NODES = 32  # nodes per axis of a partition grid without --nodes
_SPHERE_M = 16  # cutoff of partition --sphere-D without --M
_FAILURE_TYPES = (MetricError, GeometryError, EngineError, RouteError, ValueError, OSError,
                  MemoryError)
_COORDINATE_OPTIONS = ("--point", "--points", "--bounds")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")  # argparse takes "-0.3,0" for an option


def _number(kind, wording: str, accept=lambda value: math.isfinite(value) and value > 0):
    """Argument type: kind(text) where accept takes it, else "must be {wording}"."""
    def parse(text: str):
        try:
            ok = accept(value := kind(text))
        except (ValueError, OverflowError):  # OverflowError: an int too large for a float
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"must be {wording}, got {text!r}")
        return value
    return parse


_positive_float = _number(float, "a finite float > 0")
_positive_int = _number(int, "a finite int > 0")
_seed = _number(int, "an integer >= 0", lambda value: value >= 0)
_finite = _number(float, "a finite number", math.isfinite)


def _parse_bounds(text: str) -> tuple[tuple[float, float], ...]:
    """Box bounds lo:hi;lo:hi;... as (lo, hi) pairs of finite floats."""
    bounds = []
    for piece in text.split(";"):
        ends = piece.split(":")
        if len(ends) != 2:
            raise argparse.ArgumentTypeError(f"bounds need the form lo:hi;lo:hi;..., got {text!r}")
        bounds.append(tuple(_finite(x) for x in ends))
    return tuple(bounds)


def _bounds(text: str) -> str:
    """Argument type: box bounds with lo < hi on every axis; the text is
    kept for the echo."""
    for lo, hi in _parse_bounds(text):
        if not lo < hi:
            raise argparse.ArgumentTypeError(f"every interval needs lo < hi, got {text!r}")
    return text


def _parse_point(text: str | None) -> np.ndarray:
    if text is None:
        raise MetricError("--point is required for this route")
    fields = text.split(",")
    if any(x.strip() == "" for x in fields):
        raise MetricError(f"point {text!r} has an empty coordinate")
    try:
        q = np.array([float(x) for x in fields])
    except ValueError:
        raise MetricError(f"cannot parse point {text!r}") from None
    if not np.all(np.isfinite(q)):
        raise MetricError(f"point {text!r} is not finite")
    return q


def _parse_params(text: str | None) -> dict:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        key, sep, value = piece.partition("=")
        if not sep or not key:
            raise MetricError(f"cannot parse parameter assignment {piece!r}")
        name = key.strip()
        if name in out:
            raise MetricError(f"parameter {name!r} is given more than once")
        out[name] = value     # MetricSpec converts it and rejects a non-finite one
    return out


def _resolve_metric(args):
    if getattr(args, "metric", None):
        with open(args.metric, "r", encoding="utf-8") as fh:
            return parse_metric(fh.read())
    if getattr(args, "builtin", None):
        name, _, dim = args.builtin.partition(":")
        try:
            D = int(dim)
        except ValueError:  # no dimension, or not an integer, as in sphere:x or sphere:2.0
            raise MetricError("--builtin needs the form name:D, e.g. sphere:2") from None
        return builtin(name, D, _parse_params(getattr(args, "params", None)))
    raise MetricError("a metric is required: --metric FILE or --builtin name:D")


def _config_echo(args) -> dict:
    echo = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return {"version": __version__, **echo}


def _emit(payload: dict, args) -> None:
    payload = dict(payload)
    payload["config"] = _config_echo(args)
    # serialize first: a value JSON cannot hold fails before anything is written
    text = json.dumps(payload, indent=2, allow_nan=False)
    sys.stdout.write(text + "\n")


def cmd_geometry(args) -> int:
    spec = _resolve_metric(args)
    geom = point_geometry(spec, _parse_point(args.point))
    V, divV = vector_divergence(geom)
    _emit({
        "schema": "curvepath/geometry-v1",
        "name": spec.name,
        "dim": spec.dim,
        "q0": geom.q0.tolist(),
        "g": geom.g.tolist(),
        "g_inv": geom.g_inv.tolist(),
        "sqrt_g": geom.sqrt_g,
        "Gamma": geom.Gamma.tolist(),
        "Ricci": geom.Ricci.tolist(),
        "R": geom.R,
        "T": geom.T.tolist(),
        "V": V.tolist(),
        "divV": float(divV),
        "trace_T": float(np.einsum("st,st->", geom.g_inv, geom.T)),
    }, args)
    return 0


def cmd_propagator(args) -> int:
    p = PeriodicPropagator(args.beta, args.M)
    pairs = p.pair_counters()
    _emit({
        "schema": "curvepath/propagator-v1",
        "beta": args.beta,
        "M": args.M,
        "tau": args.tau,
        "taup": args.taup,
        "green_closed": p.green_closed(args.tau, args.taup),
        "green_modes": p.green_modes(args.tau, args.taup),
        "green0": pairs[(0, 0)].as_dict(),
        "green0_truncated": p.green0_truncated(),
        "ddgreen0": pairs[(1, 1)].as_dict(),
        # the measure's coincidence delta counts all N_all = 2M + 1 eigenmodes
        "delta_measure0": CounterPolynomial(coeff_nall=1.0 / p.beta).as_dict(),
    }, args)
    return 0


def _route_geometry(args) -> PointGeometry:
    """The bundle a route runs on: the sphere origin in --D dimensions, or
    the chart point."""
    if args.route == "sphere":
        if args.D is None:
            raise RouteError("--route sphere needs --D")
        return sphere_geometry(args.D)
    return point_geometry(_resolve_metric(args), _parse_point(args.point))


def cmd_ecp(args) -> int:
    geom = _route_geometry(args)
    report = boltzmann(args.route, geom, args.beta, args.M, include_fp=not args.no_fp,
                       with_mode_series=args.mode_series)
    payload = {"schema": "curvepath/expansion-report-v1"}
    payload.update(report.as_dict())
    if args.seeley:
        payload["seeley_path_integral"] = seeley_density(geom, args.beta, "path_integral")
        payload["seeley_dewitt"] = seeley_density(geom, args.beta, "dewitt_seeley")
    _emit(payload, args)
    return 0


def cmd_sweep(args) -> int:
    spec = _resolve_metric(args)
    routes = args.routes.split(",")
    for k, route in enumerate(routes):
        if route not in ("covariant", "eta"):
            raise RouteError(f"sweep supports covariant and eta routes, not {route!r}")
        if route in routes[:k]:
            raise RouteError(f"route {route!r} is given more than once")
    points = [_parse_point(p) for p in args.points.split(";") if p.strip()]
    if not points:
        raise MetricError(f"--points {args.points!r} names no point")
    for q0 in points:
        if q0.shape != (spec.dim,):
            raise MetricError(f"point {q0.tolist()} has wrong dimension, expected {spec.dim}")
    lines = [",".join(f"q{i + 1}" for i in range(spec.dim))
             + ",beta,route,B_coefficient,discrepancy\n"]
    for block in geometry_blocks(spec, np.reshape(points, (-1, spec.dim))):
        # one batched call per route; the rows go out per point, then per route
        columns = []
        for route in routes:
            rep = boltzmann(route, block, args.beta, args.M, include_fp=not args.no_fp)
            columns.append((f",{args.beta!r},{route},", rep.B_coefficient.tolist(),
                            rep.discrepancy.tolist()))
        for k, q0 in enumerate(block.q0.tolist()):
            coords = ",".join(map(repr, q0))
            lines.extend(f"{coords}{middle}{coeff[k]!r},{disc[k]!r}\n"
                         for middle, coeff, disc in columns)
    sys.stdout.write("".join(lines))
    return 0


def cmd_mc(args) -> int:
    geom = _route_geometry(args)
    if args.csv:
        rows = []

        def on_batch(count, mean, stderr):
            if not rows:
                sys.stdout.write("n,mean,stderr\n")
            rows.append(count)
            sys.stdout.write(f"{count},{mean!r},{stderr!r}\n")
        try:
            mc_boltzmann(args.route, geom, args.beta, args.M, args.samples, args.seed,
                         on_batch=on_batch)
        except BrokenPipeError:
            raise
        except _FAILURE_TYPES as exc:
            if not rows:  # nothing written yet: the error document is stdout's one output
                raise
            _report(exc, sys.stderr)  # stdout holds CSV from the header on
            return 1
        return 0
    est = mc_boltzmann(args.route, geom, args.beta, args.M, args.samples, args.seed)
    payload = {"schema": "curvepath/mc-v1", "route": args.route}
    payload.update(est.as_dict())
    payload["B_reference"] = 1.0 - geom.R * args.beta / 24.0
    _emit(payload, args)
    return 0


def cmd_partition(args) -> int:
    if args.M is None:
        args.M = _SPHERE_M  # resolved here, so the config echo keeps showing it
    if args.sphere_D is not None:
        z = sphere_route_partition(args.sphere_D, args.beta, args.M)
        _emit({"schema": "curvepath/partition-v1", "Z": z, "kind": "sphere-route"}, args)
        return 0
    spec = _resolve_metric(args)
    if args.nodes is None:
        args.nodes = _GRID_NODES  # resolved here, so the config echo shows it
    if args.polar is not None:
        grid = QuadratureGrid(kind="polar", rmax=args.polar, n=args.nodes)
    elif spec.default_grid is not None:
        grid = QuadratureGrid(kind=spec.default_grid, n=args.nodes)
    else:
        if args.bounds is None:
            sys.stderr.write("curvepath partition: error: a box grid needs --bounds lo:hi;...\n")
            return 2
        grid = QuadratureGrid(kind="box", bounds=_parse_bounds(args.bounds), n=args.nodes)
    z = partition_function(spec, args.beta, grid)
    _emit({"schema": "curvepath/partition-v1", "Z": z, "kind": grid.kind}, args)
    return 0


def cmd_verify(args) -> int:
    rows = run_suite(args.suite)
    failed = 0
    for name, ok, detail in rows:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f"  ({detail})"
        sys.stdout.write(line + "\n")
        failed += 0 if ok else 1
    sys.stdout.write(f"{len(rows) - failed}/{len(rows)} checks passed\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="curvepath",
                                 description="two-loop effective classical potential "
                                             "of a particle in curved space")
    ap.add_argument("--version", action="version", version=f"curvepath {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_metric_opts(p, point_required=True):
        p.add_argument("--metric", help="metric file (JSON)")
        p.add_argument("--builtin", help=f"builtin chart name:D, names: {BUILTIN_NAMES}")
        p.add_argument("--params", help="builtin parameters, e.g. a=0.3,b=-0.1")
        p.add_argument("--point", required=point_required, default=None,
                       help="evaluation point q1,q2,...")

    g = sub.add_parser("geometry", help="tensor bundle at a point")
    add_metric_opts(g)
    g.set_defaults(func=cmd_geometry)

    pr = sub.add_parser("propagator", help="periodic kernel values")
    pr.add_argument("--beta", type=_positive_float, required=True)
    pr.add_argument("--M", type=_positive_int, required=True)
    pr.add_argument("--tau", type=_finite, default=0.0)
    pr.add_argument("--taup", type=_finite, default=0.0)
    pr.set_defaults(func=cmd_propagator)

    e = sub.add_parser("ecp", help="Boltzmann factor by one route")
    e.add_argument("--route", required=True, choices=("covariant", "eta", "sphere"))
    add_metric_opts(e, point_required=False)
    e.add_argument("--beta", type=_positive_float, required=True)
    e.add_argument("--M", type=_positive_int, default=64)
    e.add_argument("--D", type=_positive_int, help="dimension for the sphere route")
    e.add_argument("--no-fp", action="store_true", dest="no_fp",
                   help="drop the Faddeev-Popov term (eta route)")
    e.add_argument("--mode-series", action="store_true", dest="mode_series",
                   help="attach the sharp-cutoff diagnostic series (eta route)")
    e.add_argument("--seeley", action="store_true",
                   help="attach both short-time density conventions")
    e.set_defaults(func=cmd_ecp)

    sw = sub.add_parser("sweep", help="CSV of B coefficients over points")
    add_metric_opts(sw, point_required=False)
    sw.add_argument("--points", required=True, help="semicolon-separated points")
    sw.add_argument("--routes", default="covariant")
    sw.add_argument("--beta", type=_positive_float, required=True)
    sw.add_argument("--M", type=_positive_int, default=64)
    sw.add_argument("--no-fp", action="store_true", dest="no_fp")
    sw.set_defaults(func=cmd_sweep)

    m = sub.add_parser("mc", help="Monte Carlo cross-check")
    m.add_argument("--route", required=True, choices=("covariant", "eta", "sphere"))
    add_metric_opts(m, point_required=False)
    m.add_argument("--D", type=_positive_int)
    m.add_argument("--beta", type=_positive_float, required=True)
    m.add_argument("--M", type=_positive_int, required=True)
    m.add_argument("--samples", type=_positive_int, required=True)
    m.add_argument("--seed", type=_seed, default=0)
    m.add_argument("--csv", action="store_true",
                   help="stream per-batch partial results as CSV")
    m.set_defaults(func=cmd_mc)

    pa = sub.add_parser("partition", help="configuration-space quadrature")
    add_metric_opts(pa, point_required=False)
    pa.add_argument("--beta", type=_positive_float, required=True)
    pa.add_argument("--M", type=_positive_int,
                    help=f"mode cutoff of --sphere-D (default {_SPHERE_M})")
    pa.add_argument("--sphere-D", type=_positive_int, dest="sphere_D",
                    help="closed-form sphere-route partition function")
    pa.add_argument("--bounds", type=_bounds, help="box bounds lo:hi;lo:hi;...")
    pa.add_argument("--polar", type=_positive_float, help="polar grid with this radial extent")
    pa.add_argument("--nodes", type=_positive_int,
                    help=f"grid nodes per axis (default {_GRID_NODES})")
    pa.set_defaults(func=cmd_partition)

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("suite", nargs="?", default="all", choices=("all", *SUITES))
    v.set_defaults(func=cmd_verify)
    return ap


# Options that act on one kind of call of their subcommands only, as
# (argparse dest, subcommands, the kinds of call they act on, those kinds in
# words). A call's kinds are its routes, or for partition "--sphere-D" (the
# sphere route's closed form) or "grid" (a quadrature); see _call_kinds.
_OPTION_SCOPES = (
    ("D", ("ecp", "mc"), {"sphere"}, "the sphere route"),
    ("no_fp", ("ecp", "sweep"), {"eta"}, "the eta route"),
    ("mode_series", ("ecp",), {"eta"}, "the eta route"),
    *((dest, ("ecp", "mc"), {"covariant", "eta"}, "the covariant and eta routes")
      for dest in ("builtin", "metric", "params", "point")),
    *((dest, ("partition",), {"grid"}, "quadrature grids")
      for dest in ("builtin", "metric", "params", "bounds", "polar", "nodes")),
    ("M", ("partition",), {"--sphere-D"}, "--sphere-D"),
    ("point", ("partition", "sweep"), set(), "geometry, ecp and mc"),
)


def _call_kinds(args) -> list[str]:
    """The kinds of call that _OPTION_SCOPES names, for a parsed call."""
    if args.subcommand == "partition":
        return ["--sphere-D" if args.sphere_D is not None else "grid"]
    if args.subcommand == "sweep":
        return args.routes.split(",")
    return [args.route]


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with "--point -0.3,0" (and --points, --bounds) written as
    "--point=-0.3,0", so the value is not read as an option."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _COORDINATE_OPTIONS and _NEGATIVE_VALUE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parsing leaves it unchanged."""
    return build_parser()


def _quiet_stdout() -> None:
    """Point the stdout descriptor at devnull, so that the flush at exit stays
    quiet once the reader has gone."""
    with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report(exc: BaseException, stream) -> None:
    """Write the JSON error document of a failure to stream."""
    # NumPy raises a private subclass of MemoryError; report the public name
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    json.dump({"error": name, "message": str(exc)}, stream)
    stream.write("\n")


def main(argv=None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit:  # --help, --version or a usage error, with argparse's own status
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _quiet_stdout()
        raise
    for dest, subcommands, kinds, scope in _OPTION_SCOPES:
        if args.subcommand in subcommands and getattr(args, dest) not in (None, False):
            others = [kind for kind in _call_kinds(args) if kind not in kinds]
            if others:
                ap.error(f"--{dest.replace('_', '-')} applies to {scope} only, "
                         f"not to {','.join(others)}")
    for dest in ("builtin", "params"):  # a metric file is the whole chart
        if getattr(args, "metric", None) is not None and getattr(args, dest) is not None:
            ap.error(f"--{dest} does not apply to a --metric chart")
    try:
        try:
            status = args.func(args)
        except BrokenPipeError:
            raise
        except _FAILURE_TYPES as exc:
            _report(exc, sys.stdout)
            status = 1
        sys.stdout.flush()  # a reader that has gone fails here, not in the flush at exit
        return status
    except BrokenPipeError:  # write nothing more
        _quiet_stdout()
        return 1


if __name__ == "__main__":
    sys.exit(main())
