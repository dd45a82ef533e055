"""Self-contained invariant suites behind the `verify` CLI subcommand.

Each suite returns (name, passed, detail) rows; the CLI prints one line per
check and exits nonzero if any row fails. The pytest suite covers the same
ground more finely; this module exists so a built artifact can be checked
without a test harness.
"""
from __future__ import annotations

import math

import numpy as np

from .ecp import boltzmann, sphere_geometry
from .geometry import divergence_identity_residual, point_geometry
from .metrics import builtin, embedding_to_stereographic
from .montecarlo import mc_two_point, mc_vertex_expectation
from .normal_coords import (eta_of_xi, jacobian_trlog, measure_trlog,
                            normal_curvature_check, normal_expansion,
                            qbar_matrix, xi_of_eta)
from .propagator import PeriodicPropagator
from .wick import (check_divergence_cancellation, expect_first_order,
                   expect_first_order_truncated, pairings, vertex_catalog)

__all__ = ["run_suite", "SUITES"]

Row = tuple[str, bool, str]


def _row(name: str, ok: bool, detail: str = "") -> Row:
    return (name, bool(ok), detail)


def _fit_exponent(sizes, errors) -> float:
    x = np.log(np.asarray(sizes))
    y = np.log(np.maximum(np.asarray(errors), 1e-300))
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def suite_propagator() -> list[Row]:
    rows = []
    beta = 0.7
    p = PeriodicPropagator(beta, 200)
    rows.append(_row("green0 = beta/12",
                     abs(p.green_closed(0.0) - beta / 12) < 1e-15,
                     f"{p.green_closed(0.0)!r}"))
    x, w = np.polynomial.legendre.leggauss(60)
    nodes = 0.5 * beta * (x + 1)
    integral = float(np.sum(0.5 * beta * w * p.green_closed(nodes)))
    rows.append(_row("integral over a period = 0", abs(integral) < 1e-12, f"{integral:.2e}"))
    grid = np.linspace(0.05 * beta, 0.95 * beta, 37)
    res = p.ode_residual(grid)
    rows.append(_row("defining equation residual <= 1e-12", res <= 1e-12, f"{res:.2e}"))
    tail = abs(p.green_modes(0.3 * beta) - p.green_closed(0.3 * beta))
    bound = 3 * beta / (2 * math.pi**2 * p.M)
    rows.append(_row("mode-sum tail bound", tail <= bound, f"{tail:.2e} <= {bound:.2e}"))
    # L2 projection: closed minus truncated is orthogonal to every kept mode.
    # <closed, cos(om_k x)> = 1/om_k^2 in closed form (elementary integral of
    # the quadratic kernel); the truncated side is a trigonometric polynomial,
    # integrated exactly by a uniform periodic grid.
    ortho_ok = True
    worst = 0.0
    for k in (1, 2, p.M // 2, p.M):
        om = float(p.omega(k))
        N = 4 * (p.M + k)
        tgrid = beta * np.arange(N) / N
        modes_part = float(np.sum(p.green_modes(tgrid) * np.cos(om * tgrid)) * beta / N)
        proj = 1.0 / om**2 - modes_part
        worst = max(worst, abs(proj))
        ortho_ok = ortho_ok and abs(proj) < 1e-10
    rows.append(_row("projection orthogonality", ortho_ok, f"max |<diff, mode>| = {worst:.2e}"))
    return rows


def suite_geometry() -> list[Row]:
    rows = []
    flat = point_geometry(builtin("flat", 3), [0.4, -0.2, 0.9])
    zeros = max(abs(flat.R), float(np.max(np.abs(flat.Gamma))),
                float(np.max(np.abs(flat.Riemann))), float(np.max(np.abs(flat.T))))
    rows.append(_row("flat space has no curvature data", zeros == 0.0, f"{zeros:.2e}"))
    for D in (2, 3):
        g = point_geometry(builtin("sphere", D), [0.25] + [0.1] * (D - 1))
        rows.append(_row(f"sphere D={D} scalar curvature",
                         abs(g.R - D * (D - 1)) < 1e-9, f"R = {g.R!r}"))
    q = np.array([0.3, 0.2])
    g_emb = point_geometry(builtin("sphere", 2), q)
    g_ste = point_geometry(builtin("sphere-stereographic", 2), embedding_to_stereographic(q))
    rows.append(_row("scalar curvature is chart independent",
                     abs(g_emb.R - g_ste.R) < 1e-9, f"{g_emb.R - g_ste.R:.2e}"))
    worst = 0.0
    rng = np.random.default_rng(7)
    for name in ("sphere", "sphere-stereographic", "hyperbolic-ball", "conformal2d"):
        spec = builtin(name, 2)
        for _ in range(5):
            q0 = 0.55 * rng.uniform(-1, 1, size=2)
            worst = max(worst, divergence_identity_residual(spec, q0))
    rows.append(_row("trace of T equals div V (<= 1e-7)", worst <= 1e-7, f"max {worst:.2e}"))
    return rows


def suite_normal_coords() -> list[Row]:
    rows = []
    spec = builtin("sphere", 2)
    exp = normal_expansion(spec, [0.3, 0.1])
    sizes = np.array([1e-1, 5e-2, 2.5e-2, 1.25e-2])
    errs = []
    direction = np.array([0.6, -0.8])
    for s in sizes:
        xi = s * direction
        errs.append(float(np.linalg.norm(xi_of_eta(exp, eta_of_xi(exp, xi)) - xi)) + 1e-300)
    slope = _fit_exponent(sizes, errs)
    rows.append(_row("round-trip scaling exponent >= 3.7", slope >= 3.7, f"{slope:.2f}"))
    qres = float(np.max(np.abs(qbar_matrix(exp, 0.02 * direction) - np.eye(2))))
    rows.append(_row("shift compensation matrix is the identity", qres < 1e-5, f"{qres:.2e}"))
    res34 = normal_curvature_check(spec, [0.3, 0.1])
    rows.append(_row("normal-chart Christoffel derivative identity", res34 <= 1e-5,
                     f"{res34:.2e}"))
    # quadratic parts of the two trace-logs sum to -(1/6) Ricci
    geom = exp.geom
    worst = 0.0
    for vec in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), direction):
        total = jacobian_trlog(exp, vec) + measure_trlog(exp, vec)
        expected = -(1.0 / 6.0) * float(np.einsum("st,s,t->", geom.Ricci, vec, vec))
        # remove the linear parts, which cancel between the two logs already
        worst = max(worst, abs(total - expected))
    rows.append(_row("measure + jacobian quadratic = -(1/6) Ricci", worst <= 1e-8,
                     f"max {worst:.2e}"))
    return rows


def suite_wick() -> list[Row]:
    rows = []
    counts_ok = all(sum(1 for _ in pairings(n)) == expected
                    for n, expected in ((2, 1), (4, 3), (6, 15), (8, 105)))
    rows.append(_row("pairing counts are (n-1)!!", counts_ok))
    beta = 0.3
    geom = point_geometry(builtin("sphere", 2), [0.2, -0.3])
    worst = 0.0
    for M in (1, 5, 50):
        p = PeriodicPropagator(beta, M)
        vertices = {v.label: v for v in vertex_catalog(geom, beta, "covariant")}
        a_int = (expect_first_order(vertices["quartic-curvature"], p, geom)
                 + expect_first_order(vertices["measure"], p, geom))
        a_fp = expect_first_order(vertices["faddeev-popov"], p, geom)
        worst = max(worst,
                    abs(a_int.value_at(M) - geom.R * beta / 72),
                    abs(a_fp.value_at(M) - geom.R * beta / 36))
    rows.append(_row("covariant pieces R b/72 and R b/36 at every M", worst < 1e-14,
                     f"max {worst:.2e}"))
    rep = check_divergence_cancellation("covariant", geom, PeriodicPropagator(beta, 16))
    rows.append(_row("covariant counter slope vanishes", rep["cancels"],
                     f"slope {rep['slope']:.2e}"))
    rep = check_divergence_cancellation("eta", geom, PeriodicPropagator(beta, 16))
    rows.append(_row("displacement-route coincidence counters cancel",
                     rep["cancels"] and rep["first_matches_closed_form"]
                     and rep["second_matches_closed_form"],
                     f"residual {rep['residual']:.2e}"))
    worst = 0.0
    for name, q0 in (("sphere", [0.2, -0.3]), ("hyperbolic-ball", [0.25, 0.1, -0.2]),
                     ("conformal2d", [0.4, -0.3])):
        chart = point_geometry(builtin(name, len(q0)), q0)
        rep = check_divergence_cancellation("eta", chart, PeriodicPropagator(beta, 16))
        closed = rep["closed_form_coefficient"]
        worst = max(worst, abs(rep["delta0_second_order"] - closed) / abs(closed))
    rows.append(_row("compiled second order = Christoffel-squared form on 3 charts",
                     worst <= 1e-12, f"max rel {worst:.2e}"))
    flat = point_geometry(builtin("flat", 2), [0.0, 0.0])
    p = PeriodicPropagator(beta, 8)
    flat_ok = all(
        abs(expect_first_order(v, p, flat).value_at(8)) == 0.0
        for v in vertex_catalog(flat, beta, "covariant"))
    rows.append(_row("flat space: all covariant vertices vanish", flat_ok))
    return rows


def suite_mc() -> list[Row]:
    rows = []
    beta, M, n = 0.2, 32, 20000
    geom = point_geometry(builtin("sphere", 2), [0.0, 0.0])
    p = PeriodicPropagator(beta, M)
    v_fp = next(v for v in vertex_catalog(geom, beta, "covariant")
                if v.label == "faddeev-popov")
    est = mc_vertex_expectation(v_fp, geom, beta, M, n, seed=11)
    target = expect_first_order_truncated(v_fp, p, geom)
    ok = abs(est.mean - target) <= 3 * est.stderr
    rows.append(_row("MC FP vertex within 3 sigma of engine",
                     ok, f"{est.mean:.5f} vs {target:.5f} (se {est.stderr:.1e})"))
    checks = mc_two_point(beta, M, 2, n, seed=12, pairs=[(0.02, 0.11), (0.05, 0.19)])
    ok = all(abs(c["mean"] - c["expected"]) <= 3 * c["stderr"] for c in checks)
    rows.append(_row("MC two-point function matches kernel", ok))
    return rows


def suite_routes() -> list[Row]:
    rows = []
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    cov = boltzmann("covariant", geom, 0.1, 64)
    eta = boltzmann("eta", geom, 0.1, 64)
    sph = boltzmann("sphere", sphere_geometry(2), 0.1, 64)
    spread = max(abs(cov.B_coefficient - eta.B_coefficient),
                 abs(cov.B_coefficient - sph.B_coefficient))
    rows.append(_row("three routes agree on the sphere", spread < 1e-12, f"{spread:.2e}"))
    nofp = boltzmann("eta", geom, 0.1, 64, include_fp=False)
    gT = float(np.einsum("st,st->", geom.g_inv, geom.T))
    defect = abs(nofp.noncovariant_defect - gT / 24)
    rows.append(_row("FP omission reproduces the closed-form defect", defect < 1e-12,
                     f"{defect:.2e}"))
    return rows


SUITES = {
    "propagator": suite_propagator,
    "geometry": suite_geometry,
    "normal-coords": suite_normal_coords,
    "wick": suite_wick,
    "mc": suite_mc,
    "routes": suite_routes,
}


def run_suite(name: str) -> list[Row]:
    if name == "all":
        rows = []
        for key in SUITES:
            rows.extend((f"{key}: {n}", ok, d) for n, ok, d in SUITES[key]())
        return rows
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [(f"{name}: {n}", ok, d) for n, ok, d in SUITES[name]()]
