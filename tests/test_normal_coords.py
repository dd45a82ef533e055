import json
from pathlib import Path

import numpy as np
import pytest

from curvepath import normal_coords
from curvepath.geometry import point_geometry
from curvepath.metrics import builtin
from curvepath.normal_coords import (_chart_gamma, _normal_chart_dgamma,
                                     connection_Q, deta_dq0_fd, deta_dxi,
                                     eta_of_xi, jacobian_trlog, measure_trlog,
                                     normal_curvature_check, normal_expansion,
                                     qbar_matrix, xi_of_eta)


def fit_exponent(sizes, errors):
    x = np.log(np.asarray(sizes))
    y = np.log(np.maximum(np.asarray(errors), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def geodesic_rk4(spec, q0, xi, steps=400):
    """Integrate the geodesic equation from (q0, xi) to unit time."""
    q = np.asarray(q0, dtype=float).copy()
    v = np.asarray(xi, dtype=float).copy()

    def acc(qq, vv):
        G = point_geometry(spec, qq).Gamma
        return -np.einsum("mst,s,t->m", G, vv, vv)

    h = 1.0 / steps
    for _ in range(steps):
        k1q, k1v = v, acc(q, v)
        k2q, k2v = v + 0.5 * h * k1v, acc(q + 0.5 * h * k1q, v + 0.5 * h * k1v)
        k3q, k3v = v + 0.5 * h * k2v, acc(q + 0.5 * h * k2q, v + 0.5 * h * k2v)
        k4q, k4v = v + h * k3v, acc(q + h * k3q, v + h * k3v)
        q = q + (h / 6) * (k1q + 2 * k2q + 2 * k3q + k4q)
        v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return q


SPHERE = builtin("sphere", 2)


def test_zero_maps_to_zero():
    exp = normal_expansion(SPHERE, [0.3, 0.1])
    assert np.all(eta_of_xi(exp, [0.0, 0.0]) == 0.0)
    assert np.all(xi_of_eta(exp, [0.0, 0.0]) == 0.0)


def test_flat_maps_are_identity():
    exp = normal_expansion(builtin("flat", 2), [1.0, 2.0])
    xi = np.array([0.3, -0.8])
    assert np.allclose(eta_of_xi(exp, xi), xi)
    assert np.allclose(xi_of_eta(exp, xi), xi)
    assert np.allclose(connection_Q(exp, xi), np.eye(2))
    assert jacobian_trlog(exp, xi) == 0.0
    assert measure_trlog(exp, xi) == 0.0


def test_forward_map_matches_integrated_geodesic():
    q0 = np.array([0.3, 0.1])
    exp = normal_expansion(SPHERE, q0)
    direction = np.array([0.8, -0.6])
    sizes = np.array([0.2, 0.1, 0.05, 0.025])
    errs = []
    for s in sizes:
        xi = s * direction
        endpoint = geodesic_rk4(SPHERE, q0, xi)
        errs.append(np.linalg.norm(q0 + eta_of_xi(exp, xi) - endpoint) + 1e-300)
    # truncation at cubic order: endpoint error scales like |xi|^4
    assert fit_exponent(sizes, errs) == pytest.approx(4.0, abs=0.3)


def test_round_trip_quartic_scaling():
    exp = normal_expansion(SPHERE, [0.3, 0.1])
    direction = np.array([0.6, 0.8])
    sizes = np.array([1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3])
    errs = [np.linalg.norm(xi_of_eta(exp, eta_of_xi(exp, s * direction)) - s * direction)
            for s in sizes]
    slope = fit_exponent(sizes, errs)
    assert slope == pytest.approx(4.0, abs=0.2)
    assert slope >= 3.7


@pytest.mark.parametrize("name", ["sphere", "sphere-stereographic",
                                  "hyperbolic-ball", "conformal2d"])
def test_round_trip_on_catalog(name):
    exp = normal_expansion(builtin(name, 2), [0.2, -0.1])
    direction = np.array([0.38, 0.92])
    sizes = np.array([1e-1, 5e-2, 2.5e-2, 1.25e-2])
    errs = [np.linalg.norm(xi_of_eta(exp, eta_of_xi(exp, s * direction)) - s * direction)
            + 1e-300 for s in sizes]
    assert fit_exponent(sizes, errs) >= 3.7


def test_connection_Q_initial_condition():
    exp = normal_expansion(SPHERE, [0.3, 0.1])
    assert np.allclose(connection_Q(exp, [0.0, 0.0]), np.eye(2))


def test_connection_Q_defining_relation():
    # delta + d eta/d q0 - Q . d eta/d xi = O(|xi|^3)
    q0 = np.array([0.3, 0.1])
    exp = normal_expansion(SPHERE, q0)
    direction = np.array([-0.5, 0.86])
    sizes = np.array([0.2, 0.1, 0.05])
    errs = []
    for s in sizes:
        xi = s * direction
        Q = connection_Q(exp, xi)
        J = deta_dxi(exp, xi)
        dq0 = deta_dq0_fd(SPHERE, q0, xi)
        resid = np.eye(2) + dq0 - np.einsum("mk,kn->mn", J, Q)
        errs.append(np.max(np.abs(resid)) + 1e-300)
    assert fit_exponent(sizes, errs) >= 2.7


def test_qbar_compensation_is_identity():
    exp = normal_expansion(SPHERE, [0.3, 0.1])
    direction = np.array([0.9, 0.3])
    sizes = np.array([0.2, 0.1, 0.05])
    errs = [np.max(np.abs(qbar_matrix(exp, s * direction) - np.eye(2))) + 1e-300
            for s in sizes]
    assert fit_exponent(sizes, errs) >= 2.5
    assert errs[-1] < 1e-4


def test_jacobian_trlog_against_logdet():
    exp = normal_expansion(SPHERE, [0.3, 0.1])
    direction = np.array([0.2, 0.98])
    sizes = np.array([0.2, 0.1, 0.05, 0.025])
    errs = []
    for s in sizes:
        xi = s * direction
        dense = np.linalg.slogdet(deta_dxi(exp, xi))[1]
        errs.append(abs(jacobian_trlog(exp, xi) - dense) + 1e-300)
    assert fit_exponent(sizes, errs) >= 2.7


def test_jacobian_trlog_sphere_d1():
    # at the origin of the 1-sphere chart Gamma = 0 and dGamma = 1, so the
    # quadratic coefficient collapses to -(1/3)(1 + 1/2) = -1/2
    spec = builtin("sphere", 1)
    exp = normal_expansion(spec, [0.0])
    xi = np.array([1e-3])
    assert jacobian_trlog(exp, xi) == pytest.approx(-0.5 * xi[0]**2, rel=1e-10)
    dense = np.linalg.slogdet(deta_dxi(exp, xi))[1]
    assert jacobian_trlog(exp, xi) == pytest.approx(dense, abs=1e-10)


def test_measure_trlog_against_determinants():
    exp = normal_expansion(SPHERE, [0.3, 0.1])
    direction = np.array([-0.28, 0.96])
    sizes = np.array([0.2, 0.1, 0.05])
    xis = sizes[:, None] * direction
    # (1/2) log det g is log sqrt(g): at q0 and at each q0 + eta(xi), in one bundle
    points = exp.geom.q0 + np.vstack([np.zeros(2), eta_of_xi(exp, xis)])
    log_sqrt_g = np.log(point_geometry(SPHERE, points).sqrt_g)
    errs = [abs(measure_trlog(exp, xi) - (value - log_sqrt_g[0])) + 1e-300
            for xi, value in zip(xis, log_sqrt_g[1:])]
    assert fit_exponent(sizes, errs) >= 2.7


def test_measure_plus_jacobian_gives_ricci_coefficient():
    spec = builtin("sphere", 2)
    rng = np.random.default_rng(41)
    for _ in range(10):
        q0 = 0.5 * rng.uniform(-1, 1, size=2)
        exp = normal_expansion(spec, q0)
        xi = rng.uniform(-1, 1, size=2)
        total = jacobian_trlog(exp, xi) + measure_trlog(exp, xi)
        expected = -(1.0 / 6.0) * float(np.einsum("st,s,t->", exp.geom.Ricci, xi, xi))
        assert total == pytest.approx(expected, abs=1e-8)


def test_normal_curvature_check_flat():
    assert normal_curvature_check(builtin("flat", 2), [0.5, -0.5]) < 1e-12


@pytest.mark.parametrize("name", ["sphere", "hyperbolic-ball"])
def test_normal_curvature_check_curved(name):
    assert normal_curvature_check(builtin(name, 2), [0.3, 0.1]) <= 1e-5


@pytest.mark.parametrize("name,D,q0", [("sphere", 3, [0.2, -0.1, 0.15]),
                                       ("hyperbolic-ball", 2, [0.3, 0.1])])
def test_batched_stencil_matches_per_point_calls(name, D, q0, monkeypatch):
    spec = builtin(name, D)
    h = 1e-3
    exp = normal_expansion(spec, q0)
    out = np.empty((D, D, D, D))
    for k in range(D):
        e = np.zeros(D)
        e[k] = h
        g = [_chart_gamma(exp, xi, point_geometry(spec, np.asarray(q0) + eta_of_xi(exp, xi)))
             for xi in (2 * e, e, -e, -2 * e)]
        out[k] = (-g[0] + 8 * g[1] - 8 * g[2] + g[3]) / (12 * h)
    calls = []

    def counted(spec, q):
        calls.append(np.shape(q))
        return point_geometry(spec, q)

    monkeypatch.setattr(normal_coords, "point_geometry", counted)
    assert np.array_equal(_normal_chart_dgamma(normal_expansion(spec, q0)), out)
    # the base point for the expansion, then one batch for the 4 D stencil points
    assert calls == [(D,), (4 * D, D)]


def _count_point_geometry(monkeypatch) -> list:
    """Record the point shape of every point_geometry call in normal_coords."""
    calls = []

    def counted(spec, q):
        calls.append(np.shape(q))
        return point_geometry(spec, q)

    monkeypatch.setattr(normal_coords, "point_geometry", counted)
    return calls


@pytest.mark.parametrize("name,D,q0", [("sphere", 2, [0.3, 0.1]),
                                       ("hyperbolic-ball", 3, [0.25, 0.1, -0.2]),
                                       ("conformal2d", 2, [0.4, -0.3]),
                                       ("sphere", 4, [0.2, -0.1, 0.15, 0.05])])
def test_batched_base_point_stencil_matches_per_point_expansions(name, D, q0):
    """deta_dq0_fd equals, bit for bit, the central differences of separate
    normal_expansion calls at q0 +- h e_n."""
    spec = builtin(name, D)
    xi = 0.05 * np.random.default_rng(D).normal(size=D)
    step = 1e-5 * max(1.0, float(np.max(np.abs(q0))))
    want = np.empty((D, D))
    for n in range(D):
        e = np.zeros(D)
        e[n] = step
        ep = eta_of_xi(normal_expansion(spec, np.asarray(q0) + e), xi)
        em = eta_of_xi(normal_expansion(spec, np.asarray(q0) - e), xi)
        want[:, n] = (ep - em) / (2 * step)
    assert np.array_equal(deta_dq0_fd(spec, q0, xi), want)


@pytest.mark.parametrize("name,D,q0", [("sphere", 2, [0.3, 0.1]),
                                       ("hyperbolic-ball", 3, [0.25, 0.1, -0.2])])
def test_normal_maps_batch_their_point_geometry_calls(name, D, q0, monkeypatch):
    spec = builtin(name, D)
    exp = normal_expansion(spec, q0)
    calls = _count_point_geometry(monkeypatch)
    qbar_matrix(exp, np.full(D, 0.02))
    assert calls == [(2 * D, D)]            # one batch for the 2 D base points
    calls.clear()
    normal_curvature_check(spec, q0)
    assert calls == [(D,), (4 * D, D)]      # the base point, then the chart stencil


GOLDEN = json.loads((Path(__file__).parent / "golden_normal_coords.json").read_text())


@pytest.mark.parametrize("chart", GOLDEN)
def test_normal_coordinate_arrays_match_the_recorded_ones(chart):
    """The series coefficients and the finite-difference objects keep the bits
    recorded when each stencil point was evaluated one bundle at a time."""
    case = GOLDEN[chart]
    name, _, dim = chart.partition(":")
    spec = builtin(name, int(dim))
    q0 = case["q0"]
    exp = normal_expansion(spec, q0)
    got = {"eta_quad": exp.eta_quad, "eta_cub": exp.eta_cub, "xi_quad": exp.xi_quad,
           "xi_cub": exp.xi_cub, "deta_dq0_fd": deta_dq0_fd(spec, q0, case["xi"]),
           "qbar_matrix": qbar_matrix(exp, case["eta"]),
           "_normal_chart_dgamma": _normal_chart_dgamma(exp),
           "normal_curvature_check": normal_curvature_check(spec, q0)}
    for key, value in got.items():
        # compared as JSON text, so a flipped sign of zero fails too
        assert json.dumps(np.asarray(value).tolist()) == json.dumps(case[key]), key
