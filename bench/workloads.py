"""Seeded workloads for the curvepath benchmark: CLI argument vectors plus
an independent check of each call's output.

A workload is a sequence of rounds. Round r of a workload is a fixed list of
CLI calls whose inputs (points, beta, box offsets, Monte Carlo seeds) are drawn
from a stdlib ``random.Random`` keyed by the workload name, the seed and r, so
the same seed gives byte-identical argument vectors on any machine. Every
round of a workload has the same shape and size, so rounds are comparable and
the benchmark reports medians over them.

Each round has bulk calls, which carry the load, and probe calls: small
single-point or small-grid calls that measure the fixed cost of one CLI call.
A change that speeds bulk work up by batching but slows one-point calls shows
in the probes.

Arguments whose value may start with "-" are written in the "--opt=value"
form: the CLI's argparse rejects "--points -0.1,..." as a usage error.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

WORKLOADS = ("routes", "quadrature", "montecarlo")

# The unit of work each workload counts in its throughput.
WORK_UNIT = {"routes": "evals", "quadrature": "nodes", "montecarlo": "samples"}

ROUTE_CHARTS = (("sphere", 2), ("sphere", 4), ("hyperbolic-ball", 3), ("conformal2d", 2))
SWEEP_POINTS = 16
SWEEP_ROUTES = ("covariant", "eta")
ROUTE_BETA = 0.1
ROUTE_M = 64

DISCREPANCY_TOL = 1e-12
Z_REL_TOL = 1e-6          # sphere-chart nodes near |q| = 1 lose ~1e-8 in R
MC_ABS_TOL = 0.003
STDERR_TARGET = 1e-4


class CheckFailed(Exception):
    """A CLI call's output is missing, malformed or wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, its work units and how to check it.

    ``check(stdout, seen)`` raises CheckFailed on a wrong output and returns a
    dict of facts (for example an MC stderr). ``seen`` is shared by the calls
    of one round, so a later call can be checked against an earlier one.
    """
    argv: tuple[str, ...]
    units: int
    probe: bool
    check: Callable[[str, dict], dict]


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _vec(xs) -> str:
    return ",".join(_fmt(x) for x in xs)


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"curvepath-bench:{workload}:{seed}:{round_index}")


def _json(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not one JSON document: {exc}") from None
    if not isinstance(doc, dict) or "error" in doc:
        raise CheckFailed(f"error document: {stdout[:200]!r}")
    return doc


def _number(doc: dict, key: str) -> float:
    value = doc.get(key)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise CheckFailed(f"{key} is not a finite number: {value!r}")
    return float(value)


def _close(name: str, got: float, want: float, abs_tol: float, rel_tol: float = 0.0) -> None:
    if not abs(got - want) <= abs_tol + rel_tol * abs(want):
        raise CheckFailed(f"{name} = {got!r}, expected {want!r}")


# --- routes ------------------------------------------------------------------


def check_sweep(npoints: int, routes: tuple[str, ...], dim: int,
                stdout: str, seen: dict) -> dict:
    lines = stdout.splitlines()
    header = ",".join(f"q{i + 1}" for i in range(dim)) + ",beta,route,B_coefficient,discrepancy"
    if not lines or lines[0] != header:
        raise CheckFailed(f"unexpected sweep header: {lines[:1]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != npoints * len(routes):
        raise CheckFailed(f"{len(rows)} sweep rows, expected {npoints * len(routes)}")
    by_point: dict[tuple, list[float]] = {}
    for row in rows:
        if len(row) != dim + 4 or row[dim + 1] not in routes:
            raise CheckFailed(f"malformed sweep row {row!r}")
        try:
            coeff, disc = float(row[-2]), float(row[-1])
        except ValueError:
            raise CheckFailed(f"unparsable numbers in sweep row {row!r}") from None
        if not disc <= DISCREPANCY_TOL:
            raise CheckFailed(f"sweep discrepancy {disc!r} > {DISCREPANCY_TOL}")
        by_point.setdefault(tuple(row[:dim]), []).append(coeff)
    # the routes are independent computations of one number, R/24
    for point, coeffs in by_point.items():
        if len(coeffs) != len(routes) or max(coeffs) - min(coeffs) > DISCREPANCY_TOL:
            raise CheckFailed(f"routes disagree at {point}: {coeffs}")
    return {}


def check_geometry(point: str, stdout: str, seen: dict) -> dict:
    doc = _json(stdout)
    trace_t = _number(doc, "trace_T")
    div_v = _number(doc, "divV")
    # g^{st} T_st = div V holds identically (geometry module docstring)
    _close("trace_T", trace_t, div_v, 1e-9, 1e-9)
    seen[("trace_T", point)] = trace_t
    return {}


def check_route(route: str, stdout: str, seen: dict) -> dict:
    doc = _json(stdout)
    if doc.get("route") != route:
        raise CheckFailed(f"route {doc.get('route')!r}, expected {route!r}")
    disc = _number(doc, "discrepancy")
    if not disc <= DISCREPANCY_TOL:
        raise CheckFailed(f"discrepancy {disc!r} > {DISCREPANCY_TOL}")
    _close("B_coefficient", _number(doc, "B_coefficient"), _number(doc, "R") / 24.0,
           DISCREPANCY_TOL, DISCREPANCY_TOL)
    return {}


def check_no_fp(point: str, stdout: str, seen: dict) -> dict:
    doc = _json(stdout)
    trace_t = seen.get(("trace_T", point))
    if trace_t is None:
        raise CheckFailed("no geometry output to compare the Faddeev-Popov defect with")
    _close("noncovariant_defect", _number(doc, "noncovariant_defect"), trace_t / 24.0,
           1e-12, 1e-12)
    return {}


def check_sphere_route(dim: int, stdout: str, seen: dict) -> dict:
    doc = _json(stdout)
    _close("B_coefficient", _number(doc, "B_coefficient"), dim * (dim - 1) / 24.0,
           DISCREPANCY_TOL)
    return {}


def routes_round(seed: int, round_index: int) -> list[Op]:
    rng = _rng("routes", seed, round_index)
    beta, m = str(ROUTE_BETA), str(ROUTE_M)
    ops = []
    for name, dim in ROUTE_CHARTS:
        chart = f"{name}:{dim}"
        points = [_vec(rng.uniform(-0.35, 0.35) for _ in range(dim))
                  for _ in range(SWEEP_POINTS)]
        point = _vec(rng.uniform(-0.35, 0.35) for _ in range(dim))
        ops.append(Op(("sweep", "--builtin", chart, "--points=" + ";".join(points),
                       "--routes", ",".join(SWEEP_ROUTES), "--beta", beta, "--M", m),
                      SWEEP_POINTS * len(SWEEP_ROUTES), False,
                      partial(check_sweep, SWEEP_POINTS, SWEEP_ROUTES, dim)))
        at = ("--builtin", chart, "--point=" + point)
        ops.append(Op(("geometry",) + at, 0, True, partial(check_geometry, point)))
        for route in SWEEP_ROUTES:
            ops.append(Op(("ecp", "--route", route) + at + ("--beta", beta, "--M", m), 1, True,
                          partial(check_route, route)))
        ops.append(Op(("ecp", "--route", "eta") + at + ("--beta", beta, "--M", m, "--no-fp"),
                      1, True, partial(check_no_fp, point)))
        ops.append(Op(("ecp", "--route", "sphere", "--D", str(dim), "--beta", beta, "--M", m),
                      1, True, partial(check_sphere_route, dim)))
    return ops


# --- quadrature --------------------------------------------------------------


def sphere_polar_reference(beta: float, n: int) -> float:
    """Z on the hemisphere chart of the unit 2-sphere from its closed form.

    sqrt(g) = 1/sqrt(1 - r^2) and R = 2; with r = sin(psi) the integrand is
    sin(psi), integrated with the same Gauss-Legendre and angle rule the CLI
    uses, so the reference and the CLI differ only by rounding and by the
    accuracy of R at each node.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    psi = 0.25 * math.pi * (x + 1.0)
    radial = float(np.sum(0.25 * math.pi * w * np.sin(psi)))
    return radial * 2.0 * math.pi * (1.0 - 2.0 * beta / 24.0) / (2.0 * math.pi * beta)


def hyperbolic_box_reference(beta: float, n: int, bounds) -> float:
    """Z on a box of the Poincare disk: sqrt(g) = 4/(1 - q^2)^2, R = -2."""
    x, w = np.polynomial.legendre.leggauss(n)
    (lo1, hi1), (lo2, hi2) = bounds
    q1 = 0.5 * (hi1 - lo1) * (x + 1.0) + lo1
    q2 = 0.5 * (hi2 - lo2) * (x + 1.0) + lo2
    w1 = 0.5 * (hi1 - lo1) * w
    w2 = 0.5 * (hi2 - lo2) * w
    rr = q1[:, None] ** 2 + q2[None, :] ** 2
    integral = float(np.sum(w1[:, None] * w2[None, :] * 4.0 / (1.0 - rr) ** 2))
    return integral * (1.0 + 2.0 * beta / 24.0) / (2.0 * math.pi * beta)


def check_partition(kind: str, z_ref: float, stdout: str, seen: dict) -> dict:
    doc = _json(stdout)
    if doc.get("kind") != kind:
        raise CheckFailed(f"grid kind {doc.get('kind')!r}, expected {kind!r}")
    _close("Z", _number(doc, "Z"), z_ref, 0.0, Z_REL_TOL)
    return {}


def quadrature_round(seed: int, round_index: int) -> list[Op]:
    rng = _rng("quadrature", seed, round_index)
    ops = []
    for n, probe in ((32, False), (4, True), (4, True), (4, True)):
        beta = float(_fmt(rng.uniform(0.05, 0.2)))
        z_ref = sphere_polar_reference(beta, n)
        ops.append(Op(("partition", "--builtin", "sphere:2", "--beta", _fmt(beta),
                       "--nodes", str(n)), 2 * n * n, probe,
                      partial(check_partition, "sphere-polar", z_ref)))
    for n, probe in ((24, False), (4, True), (4, True), (4, True)):
        beta = float(_fmt(rng.uniform(0.05, 0.2)))
        centre = [rng.uniform(-0.1, 0.1) for _ in range(2)]
        bounds = [(float(_fmt(c - 0.5)), float(_fmt(c + 0.5))) for c in centre]
        z_ref = hyperbolic_box_reference(beta, n, bounds)
        text = ";".join(f"{_fmt(lo)}:{_fmt(hi)}" for lo, hi in bounds)
        ops.append(Op(("partition", "--builtin", "hyperbolic-ball:2", "--beta", _fmt(beta),
                       "--nodes", str(n), "--bounds=" + text), n * n, probe,
                      partial(check_partition, "box", z_ref)))
    return ops


# --- montecarlo --------------------------------------------------------------


def check_mc(samples: int, r_scalar: float, beta: float, stdout: str, seen: dict) -> dict:
    doc = _json(stdout)
    if doc.get("n_samples") != samples:
        raise CheckFailed(f"n_samples {doc.get('n_samples')!r}, expected {samples}")
    mean = _number(doc, "mean")
    stderr = _number(doc, "stderr")
    target = 1.0 - r_scalar * beta / 24.0
    tol = max(3.0 * stderr, MC_ABS_TOL)
    if not abs(mean - target) <= tol:
        raise CheckFailed(f"MC mean {mean!r} not within {tol:.4g} of 1 - R beta/24 = {target!r}")
    return {"stderr": stderr}


def montecarlo_round(seed: int, round_index: int) -> list[Op]:
    """The stderr of B scales with beta. At these beta and sample counts the
    0.003 tolerance is at least 5.3 stderr (bias included), so a correct
    program fails a check with probability near 1e-7 per call, while
    R beta / 24 = 0.0033 on the bulk sphere call still exceeds the tolerance."""
    rng = _rng("montecarlo", seed, round_index)
    ops = []
    for beta, m, samples, probe in ((0.04, 64, 20480, False),
                                    (0.02, 16, 2048, True), (0.02, 16, 2048, True)):
        ops.append(Op(("mc", "--route", "sphere", "--D", "2", "--M", str(m), "--beta", str(beta),
                       "--samples", str(samples), "--seed", str(rng.randrange(2**31))),
                      samples, probe,
                      partial(check_mc, samples, 2.0, beta)))
    for beta, m, samples, probe in ((0.04, 32, 6144, False),
                                    (0.02, 16, 1024, True), (0.02, 16, 1024, True)):
        point = _vec(rng.uniform(-0.3, 0.3) for _ in range(3))
        ops.append(Op(("mc", "--route", "covariant", "--builtin", "hyperbolic-ball:3",
                       "--point=" + point, "--M", str(m), "--beta", str(beta),
                       "--samples", str(samples), "--seed", str(rng.randrange(2**31))),
                      samples, probe,
                      partial(check_mc, samples, -6.0, beta)))
    return ops


ROUNDS = {"routes": routes_round, "quadrature": quadrature_round,
          "montecarlo": montecarlo_round}


def make_round(workload: str, seed: int, round_index: int) -> list[Op]:
    return ROUNDS[workload](seed, round_index)


# --- running and judging calls -----------------------------------------------


def judge(op: Op, code, stdout: str, seen: dict) -> tuple[bool, dict, str]:
    """Whether one call succeeded: exit code 0 and an output that passes the
    op's check. Returns (ok, facts, reason)."""
    if code != 0:
        return False, {}, f"exit code {code!r}: {stdout[:200]!r}"
    try:
        return True, op.check(stdout, seen), ""
    except CheckFailed as exc:
        return False, {}, str(exc)


def call(main, argv) -> tuple[object, str]:
    """Run ``main(argv)`` in-process with stdout and stderr captured.

    A usage error exits through SystemExit; any other exception escaping
    ``main`` is a crash of the program under test and is reported as the
    exit code "crash", so the run goes on and the call counts as failed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - any crash is one failed operation
            code = "crash:" + traceback.format_exc(limit=3)
    return code, out.getvalue()


@dataclass
class Tally:
    """Failed operations over attempted operations."""
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
