"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one pass/fail line per
criterion; the printed ACCEPTANCE lines summarize the measured numbers.
"""
import math
import time

import numpy as np
import pytest

from curvepath.ecp import boltzmann, seeley_density, sphere_geometry
from curvepath.geometry import divergence_identity_residual, point_geometry
from curvepath.metrics import builtin, embedding_to_stereographic
from curvepath.montecarlo import mc_boltzmann, mc_two_point
from curvepath.normal_coords import (eta_of_xi, jacobian_trlog, measure_trlog,
                                     normal_curvature_check, normal_expansion,
                                     xi_of_eta)
from curvepath.propagator import PeriodicPropagator
from curvepath.wick import (check_divergence_cancellation, expect_first_order,
                            vertex_catalog)

CATALOG_2D = ("flat", "sphere", "sphere-stereographic", "hyperbolic-ball", "conformal2d")


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_covariant_two_loop_coefficient():
    t0 = time.monotonic()
    worst = 0.0
    cases = [("sphere", D, [0.3 / math.sqrt(D)] * D) for D in (1, 2, 3, 5)]
    cases.append(("hyperbolic-ball", 2, [0.2, -0.25]))
    for name, D, q0 in cases:
        geom = point_geometry(builtin(name, D), q0)
        rep = boltzmann("covariant", geom, 0.1, 64)
        scale = max(abs(geom.R / 24), 1.0)
        worst = max(worst, abs(rep.B_coefficient - geom.R / 24) / scale)
    elapsed = time.monotonic() - t0
    announce(1, worst <= 1e-9 and elapsed < 1.0,
             f"covariant B_coefficient = R/24, max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_piece_values_exact_at_every_M():
    beta = 0.23
    geom = point_geometry(builtin("sphere", 2), [0.25, 0.15])
    worst = 0.0
    for M in (1, 5, 50):
        p = PeriodicPropagator(beta, M)
        vs = {v.label: v for v in vertex_catalog(geom, beta, "covariant")}
        a_int = (expect_first_order(vs["quartic-curvature"], p, geom)
                 + expect_first_order(vs["measure"], p, geom))
        a_fp = expect_first_order(vs["faddeev-popov"], p, geom)
        worst = max(worst,
                    abs(a_int.value_at(M) / (geom.R * beta / 72) - 1),
                    abs(a_fp.value_at(M) / (geom.R * beta / 36) - 1))
    announce(2, worst <= 1e-12,
             f"<A_int> = R b/72 and <A_FP> = R b/36 at M in (1,5,50), err {worst:.2e}")


def test_criterion_3_sphere_route():
    beta = 0.17
    worst = 0.0
    for D in range(1, 7):
        rep = boltzmann("sphere", sphere_geometry(D), beta, 16)
        worst = max(worst,
                    abs(rep.pieces["A_int"].finite_value() - (-D * beta / 24)),
                    abs(rep.pieces["A_FP"].finite_value() - D * D * beta / 24),
                    abs(rep.B_value - (1 - D * (D - 1) * beta / 24)))
    d1 = boltzmann("sphere", sphere_geometry(1), beta, 16).B_value
    announce(3, worst <= 1e-12 and d1 == 1.0,
             f"sphere pieces and B for D=1..6, max abs err {worst:.2e}, B(D=1) = {d1}")


def test_criterion_4_eta_route_covariance():
    t0 = time.monotonic()
    worst = 0.0
    fails = []
    for q0 in ([0.3, 0.0], [0.5, 0.2]):
        geom = point_geometry(builtin("sphere", 2), q0)
        rep = boltzmann("eta", geom, 0.1, 1024)
        cov = boltzmann("covariant", geom, 0.1, 1024)
        worst = max(worst, abs(rep.B_coefficient / cov.B_coefficient - 1))
        cancel = check_divergence_cancellation("eta", geom, PeriodicPropagator(0.1, 1024))
        if not (cancel["cancels"] and cancel["first_matches_closed_form"]
                and cancel["second_matches_closed_form"]):
            fails.append(q0)
    elapsed = time.monotonic() - t0
    announce(4, worst <= 1e-3 and not fails and elapsed < 30.0,
             f"eta matches covariant, rel err {worst:.2e}; counter residual 0; {elapsed:.1f}s")


def test_criterion_5_noncovariance_negative_test():
    worst = 0.0
    for q0 in ([0.3, 0.0], [0.5, 0.2]):
        geom = point_geometry(builtin("sphere", 2), q0)
        rep = boltzmann("eta", geom, 0.1, 1024, include_fp=False)
        trT = float(np.einsum("st,st->", geom.g_inv, geom.T))
        worst = max(worst, abs(rep.noncovariant_defect / (trT / 24) - 1))
    announce(5, worst <= 1e-3,
             f"FP off reproduces defect tr(T)/24, rel err {worst:.2e}")


def test_criterion_6_divergence_identity():
    worst = 0.0
    rng = np.random.default_rng(101)
    for name in CATALOG_2D:
        spec = builtin(name, 2)
        for _ in range(20):
            q0 = 0.55 * rng.uniform(-1, 1, size=2)
            worst = max(worst, divergence_identity_residual(spec, q0))
    announce(6, worst <= 1e-7,
             f"|tr T - div V| over 20 points x {len(CATALOG_2D)} metrics, max {worst:.2e}")


def test_criterion_7_propagator():
    beta = 0.83
    p = PeriodicPropagator(beta, 200)
    e1 = abs(p.green_closed(0.0) - beta / 12)
    x, w = np.polynomial.legendre.leggauss(60)
    e2 = abs(float(np.sum(0.5 * beta * w * p.green_closed(0.5 * beta * (x + 1)))))
    grid = np.linspace(0.05, 0.95, 33) * beta
    e3 = p.ode_residual(grid)
    announce(7, e1 <= 1e-12 and e2 <= 1e-12 and e3 <= 1e-12,
             f"G(0) err {e1:.1e}, integral {e2:.1e}, ODE residual {e3:.1e} at M=200")


def test_criterion_8_normal_coordinates():
    spec = builtin("sphere", 2)
    exp = normal_expansion(spec, [0.3, 0.1])
    direction = np.array([0.6, -0.8])
    sizes = np.array([1e-1, 5e-2, 2.5e-2, 1.25e-2])
    errs = [np.linalg.norm(xi_of_eta(exp, eta_of_xi(exp, s * direction)) - s * direction)
            + 1e-300 for s in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])
    res34 = max(normal_curvature_check(spec, [0.3, 0.1]),
                normal_curvature_check(builtin("hyperbolic-ball", 2), [0.2, 0.1]))
    rng = np.random.default_rng(55)
    worst_sum = 0.0
    for _ in range(10):
        q0 = 0.5 * rng.uniform(-1, 1, size=2)
        e = normal_expansion(spec, q0)
        xi = rng.uniform(-1, 1, size=2)
        total = jacobian_trlog(e, xi) + measure_trlog(e, xi)
        expectation = -(1 / 6) * float(np.einsum("st,s,t->", e.geom.Ricci, xi, xi))
        worst_sum = max(worst_sum, abs(total - expectation))
    announce(8, slope >= 3.7 and res34 <= 1e-5 and worst_sum <= 1e-8,
             f"round-trip exponent {slope:.2f}, chart identity {res34:.1e}, "
             f"measure+jacobian vs -(1/6)Ricci {worst_sum:.1e}")


def test_criterion_9_chart_independence():
    worst = 0.0
    rng = np.random.default_rng(73)
    for _ in range(6):
        q = 0.5 * rng.uniform(-1, 1, size=2)
        u = embedding_to_stereographic(q)
        a = boltzmann("covariant", point_geometry(builtin("sphere", 2), q), 0.1, 16)
        b = boltzmann("covariant",
                      point_geometry(builtin("sphere-stereographic", 2), u), 0.1, 16)
        worst = max(worst, abs(a.B_coefficient - b.B_coefficient))
    announce(9, worst <= 1e-8, f"embedding vs stereographic B_coefficient, max {worst:.2e}")


def test_criterion_10_monte_carlo():
    t0 = time.monotonic()
    beta, M, n, seed = 0.1, 64, 10**6, 20240817
    geom = point_geometry(builtin("sphere", 2), [0.0, 0.0])
    est = mc_boltzmann("sphere", geom, beta, M, n, seed=seed)
    target = 1 - beta / 12
    tol = max(3 * est.stderr, 0.003)
    ok_b = abs(est.mean - target) <= tol
    pairs = [(0.013, 0.047), (0.02, 0.08), (0.031, 0.005), (0.06, 0.09), (0.001, 0.055)]
    checks = mc_two_point(beta, M, 2, 200000, seed=seed + 1, pairs=pairs)
    ok_tp = all(abs(c["mean"] - c["expected"]) <= 3 * c["stderr"] for c in checks)
    elapsed = time.monotonic() - t0
    announce(10, ok_b and ok_tp and elapsed < 120.0,
             f"B = {est.mean:.5f} vs {target:.5f} (tol {tol:.4f}); "
             f"two-point 5/5 within 3 sigma; {elapsed:.0f}s")


def test_criterion_11_seeley_toggle():
    geom = point_geometry(builtin("sphere", 2), [0.2, -0.1])
    worst = 0.0
    for beta in (0.01, 0.05):
        pref = (2 * math.pi * beta) ** (-1.0)
        diff = (seeley_density(geom, beta, "dewitt_seeley")
                - seeley_density(geom, beta, "path_integral")) / pref
        worst = max(worst, abs(diff / (geom.R * beta / 8) - 1))
    announce(11, worst <= 2e-3,
             f"bracket difference equals R b/8, rel err {worst:.2e}")
