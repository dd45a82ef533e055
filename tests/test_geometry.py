import dataclasses
import json

import numpy as np
import pytest

from curvepath import geometry
from curvepath.geometry import (GeometryError, divergence_identity_residual,
                                geometry_blocks, point_geometry, vector_divergence)
from curvepath.metrics import (DomainError, MetricError, builtin,
                               embedding_to_stereographic, parse_metric)

CATALOG_2D = ("sphere", "sphere-stereographic", "hyperbolic-ball", "conformal2d")


def test_flat_everything_vanishes():
    geom = point_geometry(builtin("flat", 3), [1.0, -0.5, 2.0])
    assert geom.R == 0.0
    V, divV = vector_divergence(geom)
    for arr in (geom.Gamma, geom.dGamma, geom.Riemann, geom.Ricci, geom.T, V):
        assert np.all(arr == 0.0)
    assert divV == 0.0


def test_metric_inverse_and_sqrt():
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.2])
    assert np.allclose(geom.g @ geom.g_inv, np.eye(2), atol=1e-12)
    assert geom.sqrt_g == pytest.approx(np.sqrt(np.linalg.det(geom.g)), rel=1e-13)


@pytest.mark.parametrize("D", [1, 2, 3, 5])
def test_sphere_scalar_curvature(D):
    geom = point_geometry(builtin("sphere", D), np.zeros(D))
    assert geom.R == pytest.approx(D * (D - 1), abs=1e-10)


def test_sphere_curvature_is_point_independent():
    spec = builtin("sphere", 2)
    rng = np.random.default_rng(23)
    for _ in range(20):
        q0 = 0.6 * rng.uniform(-1, 1, size=2)
        geom = point_geometry(spec, q0)
        assert geom.R == pytest.approx(2.0, abs=1e-9)


def test_hyperbolic_scalar_curvature():
    geom = point_geometry(builtin("hyperbolic-ball", 2), [0.25, -0.15])
    assert geom.R == pytest.approx(-2.0, abs=1e-9)


def test_christoffel_symmetry_and_ricci_symmetry():
    geom = point_geometry(builtin("conformal2d", 2), [0.2, 0.4])
    assert np.allclose(geom.Gamma, geom.Gamma.transpose(0, 2, 1), atol=1e-14)
    assert np.allclose(geom.Ricci, geom.Ricci.T, atol=1e-12)


def test_riemann_antisymmetry_and_first_bianchi():
    geom = point_geometry(builtin("sphere", 3), [0.2, 0.1, -0.3])
    R = geom.Riemann  # [s, t, k, m]: antisymmetric in (s, t)
    assert np.allclose(R, -R.transpose(1, 0, 2, 3), atol=1e-12)
    # first Bianchi: cyclic sum over the three lower slots vanishes
    cyc = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
    assert np.max(np.abs(cyc)) < 1e-10


def test_riemann_against_finite_difference_commutator():
    # rebuild the curvature from finite differences of the Christoffels only
    spec = builtin("sphere", 2)
    q0 = np.array([0.25, -0.1])
    h = 1e-4
    gam = {}
    for k in range(2):
        for sgn in (1, -1):
            e = np.zeros(2); e[k] = sgn * h
            gam[(k, sgn)] = point_geometry(spec, q0 + e).Gamma
    dG = np.stack([(gam[(k, 1)] - gam[(k, -1)]) / (2 * h) for k in range(2)])
    G = point_geometry(spec, q0).Gamma
    r_std = (np.einsum("ambn->mnab", dG) - np.einsum("bman->mnab", dG)
             + np.einsum("mar,rbn->mnab", G, G) - np.einsum("mbr,ran->mnab", G, G))
    expected = np.einsum("mkst->stkm", r_std)
    assert np.allclose(expected, point_geometry(spec, q0).Riemann, atol=1e-6)


def test_scalar_curvature_chart_invariance():
    rng = np.random.default_rng(31)
    for _ in range(5):
        q = 0.5 * rng.uniform(-1, 1, size=2)
        r_emb = point_geometry(builtin("sphere", 2), q).R
        r_ste = point_geometry(builtin("sphere-stereographic", 2),
                               embedding_to_stereographic(q)).R
        assert r_emb == pytest.approx(r_ste, abs=1e-9)


def test_trace_T_equals_divV_analytically():
    for name in CATALOG_2D:
        geom = point_geometry(builtin(name, 2), [0.3, 0.15])
        trT = float(np.einsum("st,st->", geom.g_inv, geom.T))
        assert vector_divergence(geom)[1] == pytest.approx(trT, abs=1e-11)


@pytest.mark.parametrize("name", CATALOG_2D)
def test_divergence_identity_residual(name):
    spec = builtin(name, 2)
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    for _ in range(20):
        q0 = 0.55 * rng.uniform(-1, 1, size=2)
        assert divergence_identity_residual(spec, q0) <= 1e-7


def test_divergence_identity_flat():
    assert divergence_identity_residual(builtin("flat", 2), [0.3, 0.7]) == 0.0


def test_non_positive_definite_rejected():
    src = json.dumps({"name": "bad", "dim": 2, "coords": ["q1", "q2"],
                      "g": [["1", "0"], ["0", "-1"]]})
    with pytest.raises(GeometryError, match="positive definite"):
        point_geometry(parse_metric(src), [0.0, 0.0])


def test_sphere_T_trace_at_origin():
    # embedding chart at the origin: dGamma^m_st = delta^m_k delta_st there,
    # so T_st = D delta_st and the trace is D^2
    D = 3
    geom = point_geometry(builtin("sphere", D), np.zeros(D))
    assert np.allclose(geom.T, D * np.eye(D), atol=1e-11)
    assert float(np.einsum("st,st->", geom.g_inv, geom.T)) == pytest.approx(D * D, abs=1e-10)


def _chart(g):
    return parse_metric(json.dumps({"name": "chart", "dim": 1, "coords": ["q1"], "g": [[g]]}))


@pytest.mark.parametrize("name,D", [("file", 1), ("sphere", 2), ("hyperbolic-ball", 2),
                                    ("conformal2d", 2), ("hyperbolic-ball", 3), ("sphere", 4)])
def test_batch_matches_single_points(name, D):
    # one block plus one point: the rows of a full block, of the block
    # after it and of the whole batch all carry the one-point bits, and so
    # do V and divV computed from them
    spec = _chart("1 + q1^2 + 0.3*sin(q1)") if name == "file" else builtin(name, D)
    size = geometry.block_points(D)
    qs = np.random.default_rng(23).uniform(-0.35, 0.35, size=(size + 1, D))

    def parts(geom):
        V, divV = vector_divergence(geom)
        return {**{f.name: getattr(geom, f.name) for f in dataclasses.fields(geom)},
                "V": V, "divV": divV}

    batch = parts(point_geometry(spec, qs))
    blocks = [parts(b) for b in geometry_blocks(spec, qs)]
    assert [len(b["q0"]) for b in blocks] == [size, 1]
    for key, whole in batch.items():
        assert np.array_equal(np.concatenate([b[key] for b in blocks]), whole), key
    for k, q in enumerate(qs):
        for key, value in parts(point_geometry(spec, q)).items():
            assert np.array_equal(batch[key][k], value), (key, k)


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_geometry_blocks_hold_at_most_2048_matrix_entries(D):
    size = geometry.block_points(D)
    qs = np.random.default_rng(5).uniform(-0.3, 0.3, size=(2 * size + 3, D))
    blocks = [len(b.q0) for b in geometry_blocks(builtin("sphere", D), qs)]
    assert blocks == [size, size, 3]
    assert size * D**2 <= 2048 < (size + 1) * D**2
    assert size == {1: 2048, 2: 512, 3: 227, 4: 128, 5: 81}[D]


def test_geometry_blocks_check_each_point_once(monkeypatch):
    spec = builtin("hyperbolic-ball", 2)
    checked = []
    check = type(spec).check_domain
    monkeypatch.setattr(type(spec), "check_domain",
                        lambda self, q: checked.append(np.shape(q)) or check(self, q))
    qs = np.random.default_rng(3).uniform(-0.5, 0.5, size=(geometry.block_points(2) + 7, 2))
    list(geometry_blocks(spec, qs))
    assert checked == [(geometry.block_points(2), 2), (7, 2)]
    checked.clear()
    point_geometry(spec, qs[0])
    assert checked == [(1, 2)]


@pytest.mark.parametrize("spec,error,match", [
    (builtin("sphere", 2), DomainError, r"point \[0\.9, 0\.9\] outside"),
    (_chart("1 + 1/(q1 - 0.9)"), MetricError, r"at \[0\.9\]"),
    (_chart("q1 - 0.4"), GeometryError, r"positive definite at \[0\.3\]"),
])
def test_batch_error_names_offending_point(spec, error, match):
    qs = np.array([[0.5, 0.2], [0.9, 0.9], [0.3, -0.1]])[:, :spec.dim]
    with pytest.raises(error, match=match):
        point_geometry(spec, qs)


def test_non_positive_definite_error_names_the_first_point_in_input_order():
    # g = q1 fails at -0.1 and at -0.5; the later point has the smaller eigenvalue
    with pytest.raises(GeometryError, match=r"positive definite at \[-0\.1\]$"):
        point_geometry(_chart("q1"), [[0.5], [-0.1], [-0.5]])
