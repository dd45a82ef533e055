import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from curvepath import wick
from curvepath.geometry import point_geometry
from curvepath.metrics import builtin
from curvepath.propagator import CounterPolynomial, PeriodicPropagator
from curvepath.wick import (EngineError, RouteError, Vertex,
                            check_divergence_cancellation,
                            cross_integral_modes, cross_integral_table,
                            expect_first_order, expect_first_order_truncated,
                            expect_second_order_connected, pairings,
                            richardson_limit, second_order_mode_series,
                            smooth_coefficient, vertex_catalog)

SPHERE2 = point_geometry(builtin("sphere", 2), [0.2, -0.3])
FLAT2 = point_geometry(builtin("flat", 2), [0.0, 0.0])


@pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
def test_pairing_counts(n, count):
    seen = list(pairings(n))
    assert len(seen) == count
    assert len(set(seen)) == count


def test_pairings_odd_is_empty():
    assert list(pairings(3)) == []


def test_vertex_validation():
    eye = np.eye(2)
    with pytest.raises(EngineError):
        Vertex("bad", eye, (0,))
    with pytest.raises(EngineError):
        Vertex("bad", eye, (0, 2))
    with pytest.raises(EngineError):
        Vertex("bad", eye, (0, 0, 1))


def test_covariant_pieces_at_every_M():
    beta = 0.37
    geom = SPHERE2
    for M in (1, 5, 50):
        p = PeriodicPropagator(beta, M)
        vs = {v.label: v for v in vertex_catalog(geom, beta, "covariant")}
        a_int = (expect_first_order(vs["quartic-curvature"], p, geom)
                 + expect_first_order(vs["measure"], p, geom))
        a_fp = expect_first_order(vs["faddeev-popov"], p, geom)
        # the quartic/measure counters cancel, leaving R beta / 72 at any M
        assert a_int.is_finite
        assert a_int.value_at(M) == pytest.approx(geom.R * beta / 72, rel=1e-13)
        # the zero-mode term is counter free: R beta / 36 exactly
        assert a_fp.coeff_nprop == 0.0 and a_fp.coeff_nall == 0.0
        assert a_fp.value_at(M) == pytest.approx(geom.R * beta / 36, rel=1e-13)


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 6])
def test_sphere_route_pieces(D):
    beta, M = 0.21, 7
    geom = point_geometry(builtin("sphere", D), np.zeros(D))
    p = PeriodicPropagator(beta, M)
    vs = {v.label: v for v in vertex_catalog(geom, beta, "sphere")}
    a_int = (expect_first_order(vs["(q.qdot)^2"], p, geom)
             + expect_first_order(vs["jacobian"], p, geom))
    a_fp = expect_first_order(vs["faddeev-popov"], p, geom)
    assert a_int.value_at(M) == pytest.approx(-D * beta / 24, rel=1e-13)
    assert a_fp.value_at(M) == pytest.approx(D * D * beta / 24, rel=1e-13)


def test_sphere_route_needs_origin():
    geom = point_geometry(builtin("sphere", 2), [0.2, 0.0])
    with pytest.raises(RouteError):
        vertex_catalog(geom, 0.1, "sphere")


def test_cubic_vertex_first_order_vanishes():
    beta = 0.3
    p = PeriodicPropagator(beta, 9)
    cubic = next(v for v in vertex_catalog(SPHERE2, beta, "eta")
                 if v.label == "cubic-kinetic")
    ev = expect_first_order(cubic, p, SPHERE2)
    assert ev == CounterPolynomial()
    assert ev.value_at(9) == 0.0


def test_eta_catalog_vertex_coefficients():
    beta = 0.2
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    vs = {v.label: v for v in vertex_catalog(geom, beta, "eta")}
    assert np.allclose(vs["cubic-kinetic"].coeff, 0.5 * geom.dg)
    assert vs["cubic-kinetic"].slots == (0, 1, 1)
    assert np.allclose(vs["quartic-kinetic"].coeff, 0.25 * geom.ddg)
    assert np.allclose(vs["faddeev-popov"].coeff, 0.5 * geom.T)
    assert vs["faddeev-popov"].beta_power == -1
    assert vs["measure"].measure_counter


@pytest.mark.parametrize("name,q0", [("sphere:2", [0.3, 0.1]),
                                     ("hyperbolic-ball:3", [0.25, 0.1, -0.2]),
                                     ("conformal2d:2", [0.2, -0.1])])
def test_eta_measure_vertex_is_the_hessian_of_log_sqrt_g(name, q0):
    # Gamma^m_{tm} = d_t log sqrt(g), so the measure vertex is -1/2 d_s d_t log sqrt(g);
    # the Hessian is the product of two 4th-order first-derivative stencils,
    # with every stencil point in one bundle; at h = 1e-3 they agree to 2e-10
    chart, D = name.split(":")
    D, h = int(D), 1e-3
    spec = builtin(chart, D)
    weights = np.array([-1.0, 8.0, -8.0, 1.0]) / (12 * h)
    step = h * np.array([2.0, 1.0, -1.0, -2.0])[:, None, None] * np.eye(D)  # [a, s, :]
    points = np.asarray(q0) + step[:, :, None, None] + step[None, None]  # [a, s, b, t, :]
    log_sqrt_g = np.log(point_geometry(spec, points.reshape(-1, D)).sqrt_g)
    hessian = np.einsum("a,b,asbt->st", weights, weights, log_sqrt_g.reshape(4, D, 4, D))
    vs = {v.label: v for v in vertex_catalog(point_geometry(spec, q0), 0.2, "eta")}
    assert np.allclose(vs["measure"].coeff, -0.5 * hessian, rtol=0.0, atol=1e-8)


def test_covariant_catalog_vertex_coefficients():
    beta = 0.2
    geom = point_geometry(builtin("sphere", 2), [0.0, 0.0])
    vs = {v.label: v for v in vertex_catalog(geom, beta, "covariant")}
    # at the chart origin the lowered curvature entering the quartic vertex
    # contracts against two inverse metrics to -R
    quartic = vs["quartic-curvature"].coeff
    value = float(np.einsum("abmn,ab,mn->", quartic, geom.g_inv, geom.g_inv))
    assert value == pytest.approx(-geom.R / 6, rel=1e-12)
    assert np.allclose(vs["measure"].coeff, geom.Ricci / 6)
    assert np.allclose(vs["faddeev-popov"].coeff, geom.Ricci / 3)


def test_flat_catalog_gives_zero():
    beta = 0.4
    p = PeriodicPropagator(beta, 6)
    for route in ("covariant", "eta"):
        for v in vertex_catalog(FLAT2, beta, route):
            assert expect_first_order(v, p, FLAT2).value_at(6) == 0.0


def test_truncated_value_approaches_counter_value():
    # the coincidence tail is (6 / pi^2 M) relative, about 1% at M = 64
    beta = 0.3
    geom = SPHERE2
    vs = {v.label: v for v in vertex_catalog(geom, beta, "covariant")}
    diffs = []
    exact = 0.0
    for M in (8, 16, 32, 64):
        p = PeriodicPropagator(beta, M)
        exact = expect_first_order(vs["faddeev-popov"], p, geom).value_at(M)
        trunc = expect_first_order_truncated(vs["faddeev-popov"], p, geom)
        diffs.append(abs(trunc - exact))
    assert 6 < diffs[0] / diffs[-1] < 10  # 1/M decay across an 8x range
    assert diffs[-1] == pytest.approx(6 / (math.pi**2 * 64) * abs(exact), rel=0.02)


# --- second order -----------------------------------------------------------------

def test_second_order_quadratic_zeta4():
    """Two identity-coefficient quadratic vertices: the connected value is
    2 tr(1) * beta * integral G^2 = D beta^4 / 360, the zeta(4) channel."""
    beta, M, D = 0.8, 512, 2
    p = PeriodicPropagator(beta, M)
    v = Vertex("quad", np.eye(D), (0, 0))
    ev = expect_second_order_connected(v, v, p, FLAT2)
    expected = D * beta**4 / 360.0
    assert ev.value_at(M) == pytest.approx(expected, rel=1e-12)
    # sharp mode sums converge to the same number here (no singular lines)
    series = second_order_mode_series(v, v, p, FLAT2, [128, 256, 512])
    limit, _ = richardson_limit(series)
    zeta4 = sum(1.0 / m**4 for m in range(1, M + 1))
    series_expected = 2 * D * beta * (2 * (beta / (2 * math.pi))**4 * zeta4) / beta
    assert series[-1][1] == pytest.approx(series_expected, rel=1e-10)
    assert limit == pytest.approx(expected, rel=1e-6)


def test_second_order_symmetric_and_bilinear():
    beta, M = 0.5, 16
    p = PeriodicPropagator(beta, M)
    geom = SPHERE2
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 2, 2))
    b = rng.normal(size=(2, 2, 2))
    va = Vertex("a", a, (0, 1, 1))
    vb = Vertex("b", b, (0, 1, 1))
    ev_ab = expect_second_order_connected(va, vb, p, geom)
    ev_ba = expect_second_order_connected(vb, va, p, geom)
    assert ev_ab.value_at(M) == pytest.approx(ev_ba.value_at(M), rel=1e-12)
    v2 = Vertex("2a", 2.0 * a, (0, 1, 1))
    ev_2ab = expect_second_order_connected(v2, vb, p, geom)
    assert ev_2ab.value_at(M) == pytest.approx(2 * ev_ab.value_at(M), rel=1e-12)


def test_second_order_flat_vanishes():
    beta, M = 0.5, 8
    p = PeriodicPropagator(beta, M)
    cubic = next(v for v in vertex_catalog(FLAT2, beta, "eta")
                 if v.label == "cubic-kinetic")
    ev = expect_second_order_connected(cubic, cubic, p, FLAT2)
    assert ev.value_at(M) == 0.0


def test_second_order_slot_guard():
    p = PeriodicPropagator(0.5, 4)
    v4 = Vertex("q", np.zeros((2,) * 4), (0, 0, 1, 1))
    v3 = Vertex("c", np.zeros((2,) * 3), (0, 1, 1))
    with pytest.raises(EngineError, match="rule table"):
        # two doubly-dotted quartics force an untabled four-line channel
        expect_second_order_connected(
            Vertex("dd", np.full((2, 2, 2, 2), 1.0), (1, 1, 1, 1)),
            Vertex("dd", np.full((2, 2, 2, 2), 1.0), (1, 1, 1, 1)), p, FLAT2)
    assert expect_second_order_connected(v4, v3, p, FLAT2) == CounterPolynomial()  # odd


def _dg_contractions(geom):
    """Independent evaluation of the two Christoffel-squared scalars."""
    dg, gi = geom.dg, geom.g_inv
    y1 = np.einsum("amc,bnd,ab,mn,cd->", dg, dg, gi, gi, gi)
    y2 = np.einsum("amc,bnd,an,mb,cd->", dg, dg, gi, gi, gi)
    return 0.25 * y1, 0.25 * y2


def test_eta_second_order_counter_polynomial():
    """The connected cubic square equals
    beta [C1 (N_all / 12 - 1/24) - C2 / 12] with C1, C2 the two independent
    contractions of (dg)(dg) with three inverse metrics."""
    beta, M = 0.7, 12
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    p = PeriodicPropagator(beta, M)
    cubic = next(v for v in vertex_catalog(geom, beta, "eta")
                 if v.label == "cubic-kinetic")
    half = expect_second_order_connected(cubic, cubic, p, geom).scaled(0.5)
    c1, c2 = _dg_contractions(geom)
    assert half.coeff_nall == pytest.approx(beta * c1 / 12, rel=1e-12)
    assert half.coeff_nprop == 0.0
    assert half.constant == pytest.approx(-beta * (c1 / 24 + c2 / 12), rel=1e-12)


def test_eta_second_order_matches_closed_form():
    """Assemble the closed-form second-order result from geometry tensors:
    -(beta/24)(A + 2B) + (beta^2 delta0 / 24)(A + B), with A and B built
    from first-kind Christoffels, and compare with the engine."""
    beta, M = 0.3, 9
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    p = PeriodicPropagator(beta, M)
    gi, G = geom.g_inv, geom.Gamma
    gamma_low = np.einsum("kd,dtm->tmk", geom.g, G)
    A = float(np.einsum("st,mn,tmk,ksn->", gi, gi, gamma_low, G))
    B = float(np.einsum("st,ntm,msn->", gi, G, G))
    closed_form = CounterPolynomial(constant=-beta * (A + 2 * B) / 24.0,
                                    coeff_nall=beta * (A + B) / 24.0)
    cubic = next(v for v in vertex_catalog(geom, beta, "eta")
                 if v.label == "cubic-kinetic")
    half = expect_second_order_connected(cubic, cubic, p, geom).scaled(0.5)
    assert half.constant == pytest.approx(closed_form.constant, rel=1e-12)
    assert half.coeff_nall == pytest.approx(closed_form.coeff_nall, rel=1e-12)
    assert half.coeff_nprop == pytest.approx(closed_form.coeff_nprop, abs=1e-15)


def test_divergence_cancellation_covariant():
    geom = SPHERE2
    rep = check_divergence_cancellation("covariant", geom, PeriodicPropagator(0.4, 16))
    assert rep["cancels"]
    values = list(rep["values_at_M"].values())
    assert max(values) - min(values) < 1e-15


def test_divergence_cancellation_eta():
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    rep = check_divergence_cancellation("eta", geom, PeriodicPropagator(0.4, 16))
    assert rep["cancels"]
    assert rep["first_matches_closed_form"]
    assert rep["second_matches_closed_form"]
    assert rep["delta0_first_order"] == pytest.approx(-rep["closed_form_coefficient"], rel=1e-10)


def test_divergence_cancellation_flat_trivial():
    rep = check_divergence_cancellation("eta", FLAT2, PeriodicPropagator(0.4, 8))
    assert rep["cancels"]
    assert rep["residual"] == 0.0


def _jsonable(report):
    """A check_divergence_cancellation dict as the golden file holds it."""
    if isinstance(report, dict):
        return {str(k): _jsonable(v) for k, v in report.items()}
    if isinstance(report, (str, bool, np.bool_)):
        return report if isinstance(report, str) else bool(report)
    return float(report)


DIVERGENCE_GOLDEN = json.loads(
    (Path(__file__).parent / "golden_routes.json").read_text())["divergence"]


@pytest.mark.parametrize("case", DIVERGENCE_GOLDEN,
                         ids=lambda c: f"{c['route']}-{c['chart']}-M{c['M']}")
def test_divergence_cancellation_matches_the_recorded_reports(case):
    """Every field, bit for bit, as recorded before the routes shared one
    expansion."""
    name, _, dim = case["chart"].partition(":")
    geom = point_geometry(builtin(name, int(dim)), case["point"])
    rep = check_divergence_cancellation(case["route"], geom,
                                        PeriodicPropagator(case["beta"], case["M"]))
    assert json.dumps(_jsonable(rep)) == json.dumps(case["report"])


def test_richardson_on_synthetic_series():
    series = [(M, 3.0 + 2.0 / M) for M in (64, 128, 256)]
    limit, err = richardson_limit(series)
    assert limit == pytest.approx(3.0, abs=1e-12)
    assert err < 1e-10


# --- the sharp-cutoff anomaly, documented ------------------------------------------

def test_sharp_cutoff_anomaly_in_singular_channels():
    """Sharp symmetric truncation fails for the two distribution-sensitive
    channels: the G G'' G'' sum drifts logarithmically away from the
    counter-table value, and the G' G' G'' sum converges to 0 instead of
    -1/24. This is why the engine's default scheme is the rule table."""
    beta = 1.0
    p = PeriodicPropagator(beta, 8)
    for M in (64, 128, 256):
        sharp = cross_integral_modes(p, [(0, 0), (1, 1), (1, 1)], M=M)
        table = cross_integral_table(beta, [(0, 0), (1, 1), (1, 1)]).value_at(M)
        H = sum(1.0 / k for k in range(1, M + 1))
        predicted_gap = -(H + 2) / (2 * math.pi**2) - 1.0 / 8.0
        assert sharp - table == pytest.approx(predicted_gap, abs=5e-3)
    gap_64 = (cross_integral_modes(p, [(0, 0), (1, 1), (1, 1)], M=64)
              - cross_integral_table(beta, [(0, 0), (1, 1), (1, 1)]).value_at(64))
    gap_256 = (cross_integral_modes(p, [(0, 0), (1, 1), (1, 1)], M=256)
               - cross_integral_table(beta, [(0, 0), (1, 1), (1, 1)]).value_at(256))
    assert abs(gap_256) > abs(gap_64)  # the gap grows: no extrapolation can fix it

    sharp_2 = cross_integral_modes(p, [(0, 1), (1, 0), (1, 1)], M=512)
    assert abs(sharp_2) < 2e-3  # converges to 0 ...
    table_2 = cross_integral_table(beta, [(0, 1), (1, 0), (1, 1)]).value_at(512)
    assert table_2 == pytest.approx(-1.0 / 24.0)  # ... but the consistent value is -1/24


def test_clean_channels_agree_between_schemes():
    beta = 0.9
    p = PeriodicPropagator(beta, 8)
    for types, tol in ((((0, 0), (0, 0)), 1e-6), (((0, 0), (0, 0), (0, 0)), 1e-6),
                       (((0, 0), (0, 1), (1, 0)), 1e-3), (((0, 0), (0, 0), (1, 1)), 1e-3)):
        sharp = cross_integral_modes(p, list(types), M=4096)
        table = cross_integral_table(beta, list(types)).value_at(4096)
        assert sharp == pytest.approx(table, rel=tol, abs=1e-10 * beta**2)


# --- exact smooth integrals ---------------------------------------------------

def _centered_coefficient(a, b):
    """c(a, b) in the centred variable v = u - 1/2, where g = v^2/2 - 1/24 and
    g' = v: a binomial sum of the moments of v over [-1/2, 1/2]."""
    def moment(k):
        return Fraction(0) if k % 2 else Fraction(2, k + 1) * Fraction(1, 2) ** (k + 1)
    return sum(math.comb(a, j) * Fraction(1, 2) ** j * Fraction(-1, 24) ** (a - j)
               * moment(2 * j + b) for j in range(a + 1))


# every (a, b) the rule table reaches: at most four cross lines
SMOOTH_ORDERS = [(a, b) for a in range(5) for b in range(5) if a + b <= 4]


@pytest.mark.parametrize("a,b", SMOOTH_ORDERS)
def test_smooth_coefficient_is_the_exact_rational(a, b):
    numerator, denominator = smooth_coefficient(a, b)
    assert math.gcd(numerator, denominator) == 1 and denominator > 0
    assert Fraction(numerator, denominator) == _centered_coefficient(a, b)


def test_integral_of_g_squared():
    assert smooth_coefficient(2, 0) == (1, 720)
    assert smooth_coefficient(1, 0) == (0, 1) and smooth_coefficient(0, 2) == (1, 12)
    for beta in (0.1, 0.7, 3.0):
        x = cross_integral_table(beta, [(0, 0), (0, 0)])
        assert x.constant == pytest.approx(beta**3 / 720, rel=1e-15)


@pytest.mark.parametrize("beta", [0.1, 0.7, 3.0])
def test_exact_integrals_match_gauss_legendre(beta):
    """16 Gauss-Legendre nodes integrate every degree <= 31 exactly, so the
    quadrature agrees with the rationals to rounding."""
    x, w = np.polynomial.legendre.leggauss(16)
    x, w = 0.5 * beta * (x + 1.0), 0.5 * beta * w
    G = x * x / (2 * beta) - x / 2 + beta / 12
    Gd = x / beta - 0.5
    for a, b in SMOOTH_ORDERS:
        quadrature = float(np.sum(w * G**a * Gd**b))
        numerator, denominator = smooth_coefficient(a, b)
        exact = numerator / denominator * beta ** (a + 1)
        scale = beta ** (a + 1) * 12.0**-a * 2.0**-b  # period times the integrand's maximum
        assert abs(exact - quadrature) <= 1e-15 * max(abs(exact), scale), (a, b)


def test_compiled_plan_is_built_once():
    beta = 0.3
    cubic = next(v for v in vertex_catalog(SPHERE2, beta, "eta") if v.label == "cubic-kinetic")
    for M in (4, 8):
        expect_second_order_connected(cubic, cubic, PeriodicPropagator(beta, M), SPHERE2)
    info = wick._plan.cache_info()
    expect_second_order_connected(cubic, cubic, PeriodicPropagator(beta, 16), SPHERE2)
    after = wick._plan.cache_info()
    assert after.hits == info.hits + 1 and after.misses == info.misses
    # every live term has at least two cross lines and no mixed equal-time pair
    for term in wick._plan(cubic.slots, cubic.slots):
        assert len(term.cross) >= 2
        assert all(t in ((0, 0), (1, 1)) for t in term.equal_time)


def test_terms_are_contracted_only_when_needed(monkeypatch):
    beta = 0.3
    p = PeriodicPropagator(beta, 8)
    cubic = next(v for v in vertex_catalog(SPHERE2, beta, "eta") if v.label == "cubic-kinetic")
    plan = wick._plan(cubic.slots, cubic.slots)
    contracted = []
    contract = wick._Term.contract

    def counting(term, coeffs, g_inv):
        contracted.append(term)
        return contract(term, coeffs, g_inv)

    monkeypatch.setattr(wick._Term, "contract", counting)
    # the rule table: a term whose cross integral is zero is never contracted;
    # a field pair against a field-velocity pair has two such terms, and no other
    field, mixed = Vertex("field", np.eye(2), (0, 0)), Vertex("mixed", np.eye(2), (0, 1))
    odd = wick._plan(field.slots, mixed.slots)
    assert len(odd) == 2 and all(cross_integral_table(beta, t.cross) == CounterPolynomial()
                                 for t in odd)
    assert expect_second_order_connected(field, mixed, p, SPHERE2) == CounterPolynomial()
    assert contracted == []
    expect_second_order_connected(cubic, cubic, p, SPHERE2)
    assert contracted == list(plan)
    # the sharp series: each term at most once per call, whatever the number of cutoffs
    contracted.clear()
    second_order_mode_series(cubic, cubic, p, SPHERE2, [16, 32, 64, 128])
    assert 0 < len(contracted) == len(set(contracted)) <= len(plan)


def test_batched_mode_series_equals_one_point_calls():
    """Each point of a batch gets its one-point series, with per-point zeros at
    a cutoff (M = 1) where every sharp sum of the cubic square vanishes."""
    spec, p = builtin("sphere", 2), PeriodicPropagator(0.3, 8)
    points = np.array([[0.2, -0.3], [0.1, 0.1]])

    def series(geom):
        cubic = next(v for v in vertex_catalog(geom, 0.3, "eta") if v.label == "cubic-kinetic")
        return second_order_mode_series(cubic, cubic, p, geom, [1, 2, 4])

    batched = series(point_geometry(spec, points))
    for k, q in enumerate(points):
        assert [(m, x[k]) for m, x in batched] == series(point_geometry(spec, q))
