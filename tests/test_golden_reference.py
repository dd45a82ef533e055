"""The route goldens against a long-double reference.

The reference takes the float64 bundle and vertex coefficients and
evaluates every Wick plan sum in np.longdouble, in einsum's naive order;
everything downstream of the plan sums (the counter arithmetic, B, the
divergence report) then carries long doubles too. Every golden number the
Wick engine produces (golden_routes.json: ecp, sweep, modes, divergence,
and the exact ecp and sweep outputs) is checked against it, in units of the
float64 spacing at the size of the numbers it is assembled from. The
geometry and Monte Carlo outputs of the exact goldens run no plan sum;
their bytes are pinned by test_ecp.
"""
import contextlib
import json
import math
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from curvepath import cli, wick
from curvepath.ecp import boltzmann, seeley_density
from curvepath.geometry import PointGeometry, point_geometry
from curvepath.metrics import builtin
from curvepath.propagator import CounterPolynomial, PeriodicPropagator
from curvepath.wick import check_divergence_cancellation

GOLDEN = json.loads((Path(__file__).parent / "golden_routes.json").read_text())

# np.longdouble is 80-bit extended (64-bit mantissa) on x86-64 Linux; a
# platform where it is plain float64 has no reference to offer
EXTENDED = np.finfo(np.longdouble).nmant >= 63


def _naive_longdouble(plan, coeffs, g_inv):
    """Each term's contraction as one naive long-double einsum, at its result."""
    operands = [np.asarray(c, np.longdouble) for c in coeffs]
    g_inv = np.asarray(g_inv, np.longdouble)
    return {term.result: np.einsum(term.spec, *operands,
                                   *(g_inv,) * (len(term.equal_time) + len(term.cross)))
            for term in plan.terms}


@contextlib.contextmanager
def longdouble_plan_sums():
    """Run every plan sum of the Wick engine as a naive long-double einsum."""
    with mock.patch.object(wick, "_contractions", _naive_longdouble):
        yield


def _batch_of_one(geom: PointGeometry) -> PointGeometry:
    return PointGeometry(**{f.name: np.asarray(getattr(geom, f.name))[None] for f in fields(geom)})


def _first(x):
    return x[0] if isinstance(x, np.ndarray) else x


def _ecp_reference(argv) -> dict:
    """The ecp document of argv, without schema and config, at the reference.
    The report runs on a batch of one, so no field is cast back to float;
    veff is the long-double log of the reference B."""
    args = cli._parser().parse_args(argv)
    geom = cli._route_geometry(args)
    with longdouble_plan_sums():
        report = boltzmann(args.route, _batch_of_one(geom), args.beta, args.M,
                           include_fp=not args.no_fp, with_mode_series=args.mode_series)
    one = replace(
        report, q0=report.q0[0], pieces={name: CounterPolynomial(*map(_first, poly.coefficients()))
                                         for name, poly in report.pieces.items()},
        sharp_modes={name: ([(m, _first(v)) for m, v in series], _first(limit), _first(error))
                     for name, (series, limit, error) in report.sharp_modes.items()},
        **{name: _first(getattr(report, name)) for name in (
            "R", "B_coefficient", "B_value", "covariant_expected", "discrepancy",
            "noncovariant_defect")})
    doc = replace(one, veff=-np.log(one.B_value) / args.beta).as_dict()
    del doc["q0"], doc["beta"]  # echoed inputs
    if args.seeley:
        doc["seeley_path_integral"] = seeley_density(geom, args.beta, "path_integral")
        doc["seeley_dewitt"] = seeley_density(geom, args.beta, "dewitt_seeley")
    return doc


def _sweep_reference(argv) -> list[list]:
    """The computed cells of each sweep row of argv at the reference:
    B_coefficient and discrepancy."""
    args = cli._parser().parse_args(argv)
    points = np.array([cli._parse_point(p) for p in args.points.split(";") if p.strip()])
    geom = point_geometry(cli._resolve_metric(args), points)
    columns = []
    with longdouble_plan_sums():
        for route in args.routes.split(","):
            rep = boltzmann(route, geom, args.beta, args.M, include_fp=not args.no_fp)
            columns.append((rep.B_coefficient, rep.discrepancy))
    return [[coeff[k], disc[k]] for k in range(len(points)) for coeff, disc in columns]


def _divergence_reference(case) -> tuple[dict, float]:
    """The divergence report of a case at the reference, without the echoed
    beta, and the largest counter coefficient of the pieces it sums."""
    name, _, dim = case["chart"].partition(":")
    geom = point_geometry(builtin(name, int(dim)), case["point"])
    p = PeriodicPropagator(case["beta"], case["M"])
    with longdouble_plan_sums():
        report = check_divergence_cancellation(case["route"], geom, p)
        first, second = wick.expand(wick.vertex_catalog(geom, p.beta, case["route"]), p, geom)
    coefficients = [abs(c) for poly in (*first.values(), *second.values())
                    for c in poly.coefficients()]
    return {str(k): {str(m): v for m, v in v.items()} if isinstance(v, dict) else v
            for k, v in report.items() if k != "beta"}, float(max(coefficients))


def _leaves(doc, path=()):
    """(path, value) of every float of a document; booleans and integers
    (cutoffs) are not computed values."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, (list, tuple)):
        for k, value in enumerate(doc):
            yield from _leaves(value, path + (k,))
    elif not isinstance(doc, (str, int, np.bool_)) and doc is not None:
        yield path, doc


def _pairs(golden, reference):
    """(path, golden, reference) for every number of the reference document,
    with the golden document's value at the same place."""
    for path, ref in _leaves(reference):
        want = golden
        for key in path:
            want = want[key]
        yield path, want, ref


def _csv_rows(stdout: str) -> list[list[float]]:
    """The computed cells of each sweep row: B_coefficient and discrepancy."""
    return [[float(x) for x in line.split(",")[-2:]] for line in stdout.splitlines()[1:]]


def golden_numbers():
    """(case, path, golden, reference, scale) for every golden number the Wick
    engine produces. A piece's counter coefficients, the plan sums
    themselves, are judged at the largest of them; every other number at the
    largest reference magnitude of its document and of the counter
    coefficients it is summed from (an ecp document holds its pieces; a
    divergence report does not), so a number that cancels to near zero is
    judged at the size of its terms."""
    groups = []
    for case in GOLDEN["ecp"]:
        ref = _ecp_reference(case["argv"])
        doc = {"B_coefficient": case["B_coefficient"],
               "pieces": {name: {"counter_poly": poly} for name, poly in case["pieces"].items()}}
        groups.append(("ecp " + " ".join(case["argv"][1:]), doc, {
            "B_coefficient": ref["B_coefficient"],
            "pieces": {name: {"counter_poly": ref["pieces"][name]["counter_poly"]}
                       for name in case["pieces"]}}, 0.0))
    for case in GOLDEN["sweep"]:
        rows = _sweep_reference(case["argv"])
        groups.append(("sweep " + case["argv"][2], case["B_coefficient"],
                       [row[0] for row in rows], 0.0))
    for case in GOLDEN["modes"]:
        ref = _ecp_reference(case["argv"])["pieces"]["A_second_order_sharp_modes"]
        groups.append(("modes " + " ".join(case["argv"][1:]), case,
                       {"numeric_M_series": ref["numeric_M_series"], "limit": ref["limit"]}, 0.0))
    for case in GOLDEN["exact"]:
        command = case["argv"][0]
        if command == "ecp":
            golden = json.loads(case["stdout"])
            ref = _ecp_reference(case["argv"])
            assert set(golden) - {"schema", "config", "q0", "beta"} == set(ref), case["argv"]
            groups.append(("exact " + " ".join(case["argv"]), golden, ref, 0.0))
        elif command == "sweep":
            groups.append(("exact " + " ".join(case["argv"][:3]), _csv_rows(case["stdout"]),
                           _sweep_reference(case["argv"]), 0.0))
    for case in GOLDEN["divergence"]:
        groups.append((f"divergence {case['route']} {case['chart']} M{case['M']}",
                       case["report"], *_divergence_reference(case)))
    for name, golden, reference, terms in groups:
        pairs = list(_pairs(golden, reference))
        scales = {}  # per counter polynomial, and per document for the rest
        for path, _, ref in pairs:
            key = _polynomial(path)
            scales[key] = max(scales.get(key, terms), abs(float(ref)))
        for path, want, ref in pairs:
            yield name, path, want, ref, scales[_polynomial(path)]


def _polynomial(path) -> tuple:
    """The path of the counter polynomial a number belongs to, or () for the
    document."""
    return path[:path.index("counter_poly") + 1] if "counter_poly" in path else ()


def ulps(golden: float, reference, scale: float) -> float:
    """|golden - reference| in units of the float64 spacing at scale."""
    return float(abs(np.longdouble(golden) - reference) / np.longdouble(math.ulp(scale)))


# The farthest golden numbers are a report's values at M = 50, which float64
# sums as counter coefficients times 100 and 101: 55 ulps of its report's
# scale on covariant hyperbolic-ball:3.
ULPS_BOUND = 64


@pytest.mark.skipif(not EXTENDED, reason="np.longdouble is not extended precision here")
def test_every_golden_number_is_near_the_longdouble_reference():
    numbers = list(golden_numbers())
    assert len(numbers) > 1000
    far = [(name, path, want, float(ref), ulps(want, ref, scale))
           for name, path, want, ref, scale in numbers if ulps(want, ref, scale) > ULPS_BOUND]
    assert far == []
