"""A jet-free oracle for the geometry bundle.

Christoffels, their derivatives, Riemann, Ricci, R, T, V and divV are
rebuilt from metric values alone: the compiled metric program runs on plain
floats, and every derivative is a fourth-order central difference. divV is
taken as (1/sqrt g) d_m(sqrt g V^m), not from the bundle's closed form. The
oracle is compared with point_geometry and vector_divergence on the seven
golden charts and on seeded random metric files of dimension 1 to 4. In two
dimensions, Brioschi's formula gives the Gaussian curvature R/2 from E, F, G
and their partials alone, with no Christoffel symbol.
"""
import json

import numpy as np
import pytest

from curvepath.geometry import point_geometry, vector_divergence
from curvepath.metrics import builtin, eval_metric_jet, parse_metric

H = 2e-3  # step of the differences; Gamma differenced once more gives dGamma
RTOL = 1e-7  # of the largest entry of each compared field, or of 1

GOLDEN_CHARTS = [
    ("sphere:2", [0.3, 0.1]),
    ("sphere:3", [0.2, -0.1, 0.15]),
    ("sphere:4", [0.2, -0.1, 0.15, 0.05]),
    ("hyperbolic-ball:3", [0.25, 0.1, -0.2]),
    ("conformal2d:2", [0.4, -0.3]),
    ("sphere-stereographic:2", [0.2, -0.1]),
    ("flat:3", [0.5, -0.5, 0.2]),
]
RANDOM_SEEDS = range(20)


def _metric(spec, q):
    env = {**dict(zip(spec.coords, (float(x) for x in q))), **spec.params}
    return np.array(spec.program.run(env), dtype=float).reshape(spec.dim, spec.dim)


def _derivative(f, q):
    """d_k f(q) for every k, on a new leading axis, by the five-point rule."""
    steps = H * np.eye(len(q))
    return np.stack([(-f(q + 2 * e) + 8 * f(q + e) - 8 * f(q - e) + f(q - 2 * e)) / (12 * H)
                     for e in steps])


def _christoffel(spec, q):
    """Gamma[m, s, t] = 1/2 g^{mn} (d_s g_nt + d_t g_ns - d_n g_st)."""
    g_inv = np.linalg.inv(_metric(spec, q))
    dg = _derivative(lambda x: _metric(spec, x), q)  # dg[s, m, n] = d_s g_mn
    lowered = np.einsum("snt->nst", dg) + np.einsum("tns->nst", dg) - dg
    return 0.5 * np.einsum("mn,nst->mst", g_inv, lowered)


def _density(spec, q):
    """sqrt(g) V^m, V^m = g^{st} Gamma^m_st."""
    g = _metric(spec, q)
    return np.sqrt(np.linalg.det(g)) * np.einsum("st,mst->m", np.linalg.inv(g),
                                                 _christoffel(spec, q))


def _oracle(spec, q0):
    q0 = np.asarray(q0, dtype=float)
    g = _metric(spec, q0)
    g_inv = np.linalg.inv(g)
    G = _christoffel(spec, q0)
    dG = _derivative(lambda x: _christoffel(spec, x), q0)  # dG[k, m, s, t]
    # textbook R^m_{n a b} = d_a G^m_{bn} - d_b G^m_{an} + G^m_{ar} G^r_{bn} - G^m_{br} G^r_{an}
    r_std = (np.einsum("ambn->mnab", dG) - np.einsum("bman->mnab", dG)
             + np.einsum("mar,rbn->mnab", G, G) - np.einsum("mbr,ran->mnab", G, G))
    ricci = np.einsum("mnmb->nb", r_std)
    T = (np.einsum("mmst->st", dG) - 2 * np.einsum("msk,kmt->st", G, G)
         + np.einsum("mkm,kst->st", G, G))
    div = np.trace(_derivative(lambda x: _density(spec, x), q0))
    return {
        "Gamma": G,
        "dGamma": dG,
        "Riemann": np.einsum("mkst->stkm", r_std),
        "Ricci": ricci,
        "R": np.einsum("nb,nb->", g_inv, ricci),
        "T": 0.5 * (T + T.T),
        "V": np.einsum("st,mst->m", g_inv, G),
        "divV": div / np.sqrt(np.linalg.det(g)),
    }


def _random_metric(seed):
    """delta plus small sums of polynomial, sin, cos and exp terms, D = 1..4,
    and a point near the origin."""
    rng = np.random.default_rng(seed)
    D = 1 + seed % 4
    q = [f"q{i + 1}" for i in range(D)]

    def terms(amplitude):
        out = []
        for _ in range(rng.integers(1, 4)):
            c, w = amplitude * rng.uniform(-1, 1), rng.uniform(-1.5, 1.5)
            a, b = rng.choice(q), rng.choice(q)
            out.append(f"{c:+.4f}*" + rng.choice([
                f"{a}", f"{a}*{b}", f"{a}^2*{b}", f"sin({w:.3f}*{a})",
                f"cos({w:.3f}*{a} + {b})", f"exp({w:.3f}*{b})"]))
        return " ".join(out)

    g = [[("1 " + terms(0.15)) if i == j else terms(0.05) if j > i else None
          for j in range(D)] for i in range(D)]
    spec = parse_metric(json.dumps({"name": f"random-{seed}", "dim": D, "coords": q, "g": g}))
    return spec, rng.uniform(-0.3, 0.3, size=D)


def _compare(spec, q0):
    geom = point_geometry(spec, q0)
    V, divV = vector_divergence(geom)
    computed = {"Gamma": geom.Gamma, "dGamma": geom.dGamma, "Riemann": geom.Riemann,
                "Ricci": geom.Ricci, "R": geom.R, "T": geom.T, "V": V, "divV": divV}
    for name, expected in _oracle(spec, q0).items():
        scale = max(1.0, float(np.max(np.abs(expected))))
        np.testing.assert_allclose(computed[name], expected, rtol=0, atol=RTOL * scale,
                                   err_msg=name)


@pytest.mark.parametrize("chart,q0", GOLDEN_CHARTS, ids=[c for c, _ in GOLDEN_CHARTS])
def test_bundle_matches_the_oracle_on_the_golden_charts(chart, q0):
    name, _, dim = chart.partition(":")
    _compare(builtin(name, int(dim)), q0)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_bundle_matches_the_oracle_on_random_metrics(seed):
    _compare(*_random_metric(seed))


def _brioschi(spec, q0):
    """Gaussian curvature from E = g_11, F = g_12, G = g_22 and their first
    and second partials in u = q1, v = q2 (Brioschi's formula)."""
    g, dg, ddg = eval_metric_jet(spec, q0)
    E, F, G = g[0, 0], g[0, 1], g[1, 1]
    # d_s of g_11, g_12 and g_22, for s = u and s = v
    (Eu, Fu, Gu), (Ev, Fv, Gv) = (dg[s][[0, 0, 1], [0, 1, 1]] for s in (0, 1))
    first = np.linalg.det([[-ddg[1, 1, 0, 0] / 2 + ddg[0, 1, 0, 1] - ddg[0, 0, 1, 1] / 2,
                            Eu / 2, Fu - Ev / 2],
                           [Fv - Gu / 2, E, F],
                           [Gv / 2, F, G]])
    second = np.linalg.det([[0, Ev / 2, Gu / 2], [Ev / 2, E, F], [Gu / 2, F, G]])
    return (first - second) / (E * G - F * F) ** 2


BRIOSCHI_CHARTS = ["flat", "sphere", "sphere-stereographic", "hyperbolic-ball", "conformal2d"]


@pytest.mark.parametrize("name", BRIOSCHI_CHARTS)
def test_gaussian_curvature_of_the_2d_builtins_is_brioschis(name):
    """The embedding chart of sphere:2 has F != 0 off the axes, so all of
    the formula's terms are exercised there."""
    spec = builtin(name, 2)
    rng = np.random.default_rng(8)
    for q0 in rng.uniform(-0.45, 0.45, size=(6, 2)):
        K = _brioschi(spec, q0)
        assert point_geometry(spec, q0).R / 2 == pytest.approx(K, rel=1e-11, abs=1e-11)
