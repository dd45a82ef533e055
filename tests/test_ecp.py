import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from curvepath import cli, ecp, wick
from curvepath.ecp import (QuadratureGrid, boltzmann, partition_function, seeley_density,
                           sphere_area, sphere_geometry, sphere_route_partition)
from curvepath.geometry import block_points, geometry_blocks, point_geometry
from curvepath.metrics import builtin, embedding_to_stereographic, parse_metric
from curvepath.propagator import PeriodicPropagator
from curvepath.wick import (RouteError, cross_integral_modes, expand, expect_first_order,
                            vertex_catalog)


def test_covariant_flat_is_unity():
    geom = point_geometry(builtin("flat", 3), [0.5, -1.0, 2.0])
    for beta in (0.01, 0.1, 1.0):
        rep = boltzmann("covariant", geom, beta, 16)
        assert rep.B_coefficient == 0.0
        assert rep.B_value == 1.0


def test_covariant_sphere_value():
    geom = point_geometry(builtin("sphere", 2), [0.0, 0.0])
    rep = boltzmann("covariant", geom, 0.1, 64)
    assert rep.B_coefficient == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert rep.B_value == pytest.approx(1.0 - 2 * 0.1 / 24, rel=1e-13)
    assert rep.veff == pytest.approx(-math.log(rep.B_value) / 0.1, rel=1e-13)


def test_covariant_point_independent_on_sphere():
    spec = builtin("sphere", 2)
    rng = np.random.default_rng(19)
    for _ in range(10):
        q0 = 0.55 * rng.uniform(-1, 1, size=2)
        rep = boltzmann("covariant", point_geometry(spec, q0), 0.2, 8)
        assert rep.B_coefficient == pytest.approx(1.0 / 12.0, abs=1e-9)


def test_covariant_piece_values():
    geom = point_geometry(builtin("sphere", 3), [0.1, 0.2, -0.1])
    beta = 0.4
    rep = boltzmann("covariant", geom, beta, 32)
    a_int = rep.pieces["A_int4"] + rep.pieces["A_meas"]
    assert a_int.finite_value() == pytest.approx(geom.R * beta / 72, rel=1e-12)
    assert rep.pieces["A_FP"].finite_value() == pytest.approx(geom.R * beta / 36, rel=1e-12)


def test_eta_route_matches_covariant():
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    rep = boltzmann("eta", geom, 0.1, 1024)
    assert rep.B_coefficient == pytest.approx(geom.R / 24, rel=1e-12)


@pytest.mark.parametrize("name", ["sphere", "sphere-stereographic",
                                  "hyperbolic-ball", "conformal2d"])
def test_eta_route_on_whole_catalog(name):
    geom = point_geometry(builtin(name, 2), [0.22, -0.31])
    rep = boltzmann("eta", geom, 0.1, 32)
    assert rep.B_coefficient == pytest.approx(geom.R / 24, rel=1e-11, abs=1e-13)


def test_eta_route_on_user_metric_file():
    bump = "exp(-2*(q1^2 + q2^2))"
    src = json.dumps({
        "name": "bump", "dim": 2, "coords": ["q1", "q2"],
        "g": [[f"1 + 0.5*{bump}", f"0.15*q1*q2*{bump}"],
              [None, f"1 + 0.25*{bump}"]],
    })
    geom = point_geometry(parse_metric(src), [0.4, -0.2])
    rep = boltzmann("eta", geom, 0.2, 16)
    cov = boltzmann("covariant", geom, 0.2, 16)
    assert rep.B_coefficient == pytest.approx(geom.R / 24, rel=1e-11)
    assert cov.B_coefficient == pytest.approx(geom.R / 24, rel=1e-11)


def test_eta_route_without_fp_defect():
    for q0 in ([0.3, 0.0], [0.5, 0.2]):
        geom = point_geometry(builtin("sphere", 2), q0)
        rep = boltzmann("eta", geom, 0.1, 256, include_fp=False)
        trT = float(np.einsum("st,st->", geom.g_inv, geom.T))
        assert rep.noncovariant_defect == pytest.approx(trT / 24, rel=1e-12)


def test_eta_reduces_to_covariant_in_geodesic_chart():
    # the embedding chart has vanishing Christoffels at the origin, so the
    # extra displacement-route vertices die and the two routes coincide
    geom = point_geometry(builtin("sphere", 2), [0.0, 0.0])
    eta = boltzmann("eta", geom, 0.1, 32)
    cov = boltzmann("covariant", geom, 0.1, 32)
    assert eta.B_coefficient == pytest.approx(cov.B_coefficient, abs=1e-9)
    assert eta.pieces["A_second_order"].value_at(32) == pytest.approx(0.0, abs=1e-15)


def test_eta_mode_series_attached():
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.0])
    rep = boltzmann("eta", geom, 0.1, 128, with_mode_series=True)
    series, _, _ = rep.sharp_modes["A_second_order"]
    assert len(series) >= 3
    assert series[-1][0] == 128


def test_mode_series_sums_each_cross_signature_once_per_cutoff(monkeypatch):
    """The eta cubic square has 6 plan terms but 2 cross-line signatures, so
    the cutoffs 16, 32 and 64 take 6 sharp sums, not 18."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return cross_integral_modes(*args, **kwargs)

    monkeypatch.setattr(wick, "cross_integral_modes", counting)
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.1])
    boltzmann("eta", geom, 0.1, 64, with_mode_series=True)
    assert len(calls) == 6 and len(set(calls)) == 2


def test_batched_report_pieces_are_the_expansion_polynomials(monkeypatch):
    returned = []

    def recording(*args):
        returned.append(expand(*args))
        return returned[-1]

    monkeypatch.setattr(ecp, "expand", recording)
    geom = point_geometry(builtin("conformal2d", 2), [[0.4, -0.3], [0.1, 0.2]])
    rep = boltzmann("eta", geom, 0.1, 16)
    (first, second), = returned
    assert list(rep.pieces) == [*first, *second]
    assert all(rep.pieces[name] is poly for name, poly in {**first, **second}.items())


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5, 6])
def test_sphere_route_values(D):
    beta = 0.05
    rep = boltzmann("sphere", sphere_geometry(D), beta, 16)
    assert rep.B_coefficient == pytest.approx(D * (D - 1) / 24.0, abs=1e-14)
    assert rep.B_value == pytest.approx(1 - D * (D - 1) * beta / 24.0, abs=1e-14)
    assert rep.pieces["A_int"].finite_value() == pytest.approx(-D * beta / 24, abs=1e-14)
    assert rep.pieces["A_FP"].finite_value() == pytest.approx(D * D * beta / 24, abs=1e-14)


def test_sphere_route_d3_value():
    rep = boltzmann("sphere", sphere_geometry(3), 0.05, 8)
    assert rep.B_value == pytest.approx(0.9875, abs=1e-14)


def test_sphere_d1_is_exactly_free():
    rep = boltzmann("sphere", sphere_geometry(1), 0.3, 8)
    assert rep.B_value == 1.0


def test_seeley_flat_conventions_coincide():
    geom = point_geometry(builtin("flat", 2), [0.0, 0.0])
    for beta in (0.05, 0.2):
        pi_val = seeley_density(geom, beta, "path_integral")
        ds_val = seeley_density(geom, beta, "dewitt_seeley")
        assert pi_val == ds_val == pytest.approx(1 / (2 * math.pi * beta), rel=1e-14)


def test_seeley_ratio_value():
    geom = point_geometry(builtin("sphere", 2), [0.0, 0.0])
    beta = 0.1
    ratio = (seeley_density(geom, beta, "dewitt_seeley")
             / seeley_density(geom, beta, "path_integral"))
    # (1 + 0.2/12) / (1 - 0.2/24) = 122/119
    assert ratio == pytest.approx(122.0 / 119.0, rel=1e-14)
    assert ratio == pytest.approx(1 + geom.R * beta / 8, abs=3e-4)


def test_seeley_bracket_difference_is_exactly_r_beta_over_8():
    geom = point_geometry(builtin("sphere", 2), [0.1, 0.3])
    for beta in (0.01, 0.05):
        pref = (2 * math.pi * beta) ** (-1.0)
        diff = (seeley_density(geom, beta, "dewitt_seeley")
                - seeley_density(geom, beta, "path_integral")) / pref
        assert diff == pytest.approx(geom.R * beta / 8, rel=2e-3)


def test_boltzmann_matches_density_bracket():
    geom = point_geometry(builtin("sphere", 2), [0.2, 0.1])
    beta = 0.1
    rep = boltzmann("covariant", geom, beta, 16)
    bracket = seeley_density(geom, beta, "path_integral") * (2 * math.pi * beta)
    assert rep.B_value == pytest.approx(bracket, rel=1e-12)


def test_chart_independence_of_coefficient():
    rng = np.random.default_rng(29)
    for _ in range(5):
        q = 0.5 * rng.uniform(-1, 1, size=2)
        u = embedding_to_stereographic(q)
        c_emb = boltzmann("covariant", point_geometry(builtin("sphere", 2), q), 0.1, 8)
        c_ste = boltzmann("covariant",
                          point_geometry(builtin("sphere-stereographic", 2), u), 0.1, 8)
        assert c_emb.B_coefficient == pytest.approx(c_ste.B_coefficient, abs=1e-8)


def test_partition_flat_box():
    spec = builtin("flat", 2)
    beta = 0.3
    grid = QuadratureGrid(kind="box", bounds=((0.0, 2.0), (0.0, 3.0)), n=12)
    z = partition_function(spec, beta, grid)
    assert z == pytest.approx(6.0 / (2 * math.pi * beta), rel=1e-12)


def test_partition_sphere_route_closed_form():
    beta = 0.1
    z = sphere_route_partition(2, beta, 16)
    expected = 4 * math.pi / (2 * math.pi * beta) * (1 - 0.2 / 24)
    assert z == pytest.approx(expected, rel=1e-12)
    assert sphere_area(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_area(1) == pytest.approx(2 * math.pi, rel=1e-14)


def test_partition_hemisphere_quadrature():
    # the embedding chart covers one hemisphere: area 2 pi, constant B;
    # moderate order converges spectrally (higher orders would push nodes
    # into the ill-conditioned chart edge, see QuadratureGrid docstring)
    spec = builtin("sphere", 2)
    beta = 0.1
    z = partition_function(spec, beta, QuadratureGrid(kind="sphere-polar", n=32))
    expected = 2 * math.pi / (2 * math.pi * beta) * (1 - 2 * beta / 24)
    assert z == pytest.approx(expected, rel=1e-6)


def test_partitions_build_each_gauss_legendre_rule_once(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: built.append(n) or leggauss(n))
    ecp._gauss_legendre.cache_clear()
    spec = builtin("hyperbolic-ball", 2)
    grids = [QuadratureGrid(kind="polar", rmax=0.3, n=6),
             QuadratureGrid(kind="box", bounds=((-0.2, 0.2), (-0.1, 0.3)), n=6),
             QuadratureGrid(kind="polar", rmax=0.3, n=5)]
    first = [partition_function(spec, 0.1, grid) for grid in grids]
    assert [partition_function(spec, 0.1, grid) for grid in grids] == first
    assert built == [6, 5]
    for n in (5, 6):
        x, w = ecp._gauss_legendre(n)
        assert not x.flags.writeable and not w.flags.writeable
        assert np.array_equal(x, leggauss(n)[0]) and np.array_equal(w, leggauss(n)[1])


def test_sphere_geometry_is_built_once_per_dimension_and_read_only():
    geom = sphere_geometry(3)
    assert sphere_geometry(3) is geom
    with pytest.raises(ValueError, match="read-only"):
        geom.g[0, 0] = 2.0
    assert all(not array.flags.writeable for array in vars(geom).values()
               if isinstance(array, np.ndarray))
    for _ in range(2):  # a rejected dimension is not cached, and leaves the cache working
        with pytest.raises(ValueError, match="sphere dimension must be >= 1"):
            sphere_geometry(0)
    assert sphere_geometry(3) is geom and sphere_geometry(2).dim == 2


def test_partition_polar_matches_box():
    spec = builtin("hyperbolic-ball", 2)
    beta = 0.2
    z_polar = partition_function(spec, beta, QuadratureGrid(kind="polar", rmax=0.3, n=40))
    # the same disk by brute-force dense box quadrature with a mask is awkward;
    # instead compare against the polar integral of the analytic integrand
    x, w = np.polynomial.legendre.leggauss(80)
    r = 0.15 * (x + 1)
    rw = 0.15 * w
    total = 0.0
    for rn, wn in zip(r, rw):
        geom = point_geometry(spec, [rn, 0.0])
        total += wn * 2 * math.pi * rn * geom.sqrt_g * (1 - geom.R * beta / 24)
    assert z_polar == pytest.approx(total / (2 * math.pi * beta), rel=1e-9)


def test_noncovariant_defect_integrates_to_zero():
    """The FP-less defect is a covariant divergence, so against sqrt(g) it
    integrates to a pure boundary term; for a compactly concentrated metric
    bump the integral over a wide box is negligible against the L1 mass."""
    bump = "exp(-3*(q1^2 + q2^2))"
    src = json.dumps({
        "name": "bump", "dim": 2, "coords": ["q1", "q2"],
        "g": [[f"1 + 0.4*{bump}", f"0.1*q1*q2*{bump}"],
              [None, f"1 + 0.2*{bump}"]],
    })
    spec = parse_metric(src)
    x, w = np.polynomial.legendre.leggauss(60)
    nodes = 4.0 * x
    weights = 4.0 * w
    # the 60 x 60 tensor-product nodes in C order, evaluated block by block
    points = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = []
    for geom in geometry_blocks(spec, points):
        trT = np.einsum("...st,...st->...", geom.g_inv, geom.T)
        vals.append(geom.sqrt_g * trT / 24)
    vals = np.outer(weights, weights).reshape(-1) * np.concatenate(vals)
    total = float(np.sum(vals))
    total_abs = float(np.sum(np.abs(vals)))
    assert abs(total) <= 1e-6 * total_abs


def test_report_serializes():
    rep = boltzmann("eta", point_geometry(builtin("sphere", 2), [0.3, 0.0]), 0.1, 32)
    payload = rep.as_dict()
    text = json.dumps(payload)
    assert "B_coefficient" in json.loads(text)


@pytest.mark.parametrize("chart,point", [("sphere:2", [0.3, 0.1]),
                                         ("hyperbolic-ball:3", [0.25, 0.1, -0.2]),
                                         ("conformal2d:2", [0.4, -0.3])])
def test_B_coefficient_is_bit_stable_across_M(chart, point):
    name, _, dim = chart.partition(":")
    geom = point_geometry(builtin(name, int(dim)), point)
    routes = {
        "covariant": lambda M: boltzmann("covariant", geom, 0.1, M),
        "eta": lambda M: boltzmann("eta", geom, 0.1, M),
        "eta-no-fp": lambda M: boltzmann("eta", geom, 0.1, M, include_fp=False),
        "sphere": lambda M: boltzmann("sphere", sphere_geometry(int(dim)), 0.1, M),
    }
    for route, run in routes.items():
        values = {run(M).B_coefficient for M in (1, 16, 64, 1024)}
        assert len(values) == 1, route


GOLDEN = json.loads((Path(__file__).parent / "golden_routes.json").read_text())


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _agrees(got, want, rel=2e-15):
    return abs(got - want) <= rel * abs(want)


@pytest.mark.parametrize("case", GOLDEN["ecp"], ids=lambda c: " ".join(c["argv"][1:5]))
def test_routes_match_the_quadrature_era_outputs(case):
    """Outputs recorded when the smooth cross integrals were 16-node
    Gauss-Legendre sums: the exact rationals move only the last bits."""
    doc = json.loads(_cli_stdout(case["argv"]))
    assert _agrees(doc["B_coefficient"], case["B_coefficient"])
    assert set(doc["pieces"]) == set(case["pieces"])
    for name, want in case["pieces"].items():
        got = doc["pieces"][name]["counter_poly"]
        for key, value in want.items():
            assert _agrees(got[key], value), (name, key)


@pytest.mark.parametrize("case", GOLDEN["sweep"], ids=lambda c: c["argv"][2])
def test_sweeps_match_the_quadrature_era_outputs(case):
    rows = [line.split(",") for line in _cli_stdout(case["argv"]).splitlines()[1:]]
    assert len(rows) == len(case["B_coefficient"])
    for row, want in zip(rows, case["B_coefficient"]):
        assert _agrees(float(row[-2]), want)
        assert float(row[-1]) <= 1e-12


def test_sharp_mode_series_is_unchanged():
    case, = GOLDEN["modes"]
    piece = json.loads(_cli_stdout(case["argv"]))["pieces"]["A_second_order_sharp_modes"]
    assert piece["numeric_M_series"] == case["numeric_M_series"]
    assert piece["limit"] == case["limit"]


@pytest.mark.parametrize("case", GOLDEN["exact"], ids=lambda c: " ".join(c["argv"]))
def test_outputs_are_byte_identical_to_the_recorded_ones(case):
    """ecp on the sphere route, --seeley on every route and mc at fixed
    seeds, recorded before the routes shared one driver; geometry on seven
    charts and a sweep of BLOCK_POINTS + 2 points (two geometry blocks),
    recorded before the geometry bundle lost its single-reader fields; and
    eta --mode-series at one and two cutoffs and covariant pieces without a
    limit, recorded while each report piece was still a wrapper object."""
    assert _cli_stdout(case["argv"]) == case["stdout"]


_SPHERE_CASES = [case for case in GOLDEN["exact"] if "sphere" in case["argv"][:3]]


def test_sphere_outputs_keep_their_bytes_after_a_cache_hit(monkeypatch):
    """The recorded sphere-route ecp and mc outputs, from a fresh bundle and
    again from the cached one, which no call rebuilds or changes."""
    ecp.sphere_geometry.cache_clear()
    assert [case["argv"][0] for case in _SPHERE_CASES] == ["ecp"] * 5 + ["mc"]
    for case in _SPHERE_CASES:
        assert _cli_stdout(case["argv"]) == case["stdout"]
    built = []
    monkeypatch.setattr(ecp, "point_geometry", lambda *args: built.append(args))
    for case in _SPHERE_CASES:
        assert _cli_stdout(case["argv"]) == case["stdout"]
    assert built == []


@pytest.mark.parametrize("route,chart,point", [
    ("covariant", "hyperbolic-ball:3", [0.25, 0.1, -0.2]),
    ("eta", "conformal2d:2", [0.4, -0.3]),
    ("sphere", "sphere:3", [0.0, 0.0, 0.0]),
])
def test_report_pieces_come_from_the_catalog(route, chart, point):
    name, _, dim = chart.partition(":")
    geom = point_geometry(builtin(name, int(dim)), point)
    catalog = vertex_catalog(geom, 0.1, route)
    even = [v.piece for v in catalog if len(v.slots) % 2 == 0]
    odd = [v.piece for v in catalog if len(v.slots) % 2]
    want = list(dict.fromkeys(even)) + odd
    assert list(boltzmann(route, geom, 0.1, 16).pieces) == want
    no_fp = boltzmann(route, geom, 0.1, 16, include_fp=False)
    assert list(no_fp.pieces) == [p for p in want if p != "A_FP"]
    assert not no_fp.include_fp
    series = boltzmann(route, geom, 0.1, 16, with_mode_series=True)
    assert list(series.pieces) == want and list(series.sharp_modes) == odd
    assert list(series.as_dict()["pieces"]) == want + [p + "_sharp_modes" for p in odd]


def test_pieces_shared_by_vertices_are_summed():
    geom = sphere_geometry(2)
    p = PeriodicPropagator(0.1, 16)
    shared = [expect_first_order(v, p, geom)
              for v in vertex_catalog(geom, 0.1, "sphere") if v.piece == "A_int"]
    assert len(shared) == 2
    got = boltzmann("sphere", geom, 0.1, 16).pieces["A_int"]
    assert got.as_dict() == (shared[0] + shared[1]).as_dict()


def test_driver_squares_at_most_one_odd_vertex(monkeypatch):
    geom = point_geometry(builtin("sphere", 2), [0.3, 0.1])
    twice = vertex_catalog(geom, 0.1, "eta")
    twice = twice[:1] + twice
    monkeypatch.setattr(ecp, "vertex_catalog", lambda *args: twice)
    with pytest.raises(RouteError, match="odd vertices"):
        boltzmann("eta", geom, 0.1, 16)


def test_non_positive_B_is_a_domain_failure():
    geom = point_geometry(builtin("sphere", 2), [0.1, 0.0])
    assert boltzmann("covariant", geom, 11.9, 16).B_value > 0
    for route in (lambda: boltzmann("covariant", geom, 12.0, 16),
                  lambda: boltzmann("eta", geom, 20.0, 16),
                  lambda: boltzmann("sphere", sphere_geometry(2), 20.0, 16)):
        with pytest.raises(ValueError, match="outside the range of the order-beta expansion"):
            route()


# --- the batched engine: one call for a block of points ------------------------------

_BATCH_CHARTS = ["flat:3", "sphere:2", "sphere:4", "sphere-stereographic:2",
                 "hyperbolic-ball:3", "conformal2d:2"]


@pytest.mark.parametrize("chart", _BATCH_CHARTS)
@pytest.mark.parametrize("route,include_fp", [("covariant", True), ("eta", True),
                                              ("eta", False)])
def test_batched_boltzmann_equals_one_point_calls(chart, route, include_fp):
    """Every row of a batched report, the sharp-mode diagnostic included, has
    the bytes of the one-point call at that point."""
    name, _, dim = chart.partition(":")
    spec = builtin(name, int(dim))
    points = np.random.default_rng(7).uniform(-0.4, 0.4, size=(5, int(dim)))
    options = {"include_fp": include_fp, "with_mode_series": route == "eta"}
    batch = boltzmann(route, point_geometry(spec, points), 0.1, 64, **options)
    assert batch.B_coefficient.shape == (len(points),)
    for k, q0 in enumerate(points):
        one = boltzmann(route, point_geometry(spec, q0), 0.1, 64, **options)
        assert json.dumps(batch.row(k).as_dict()) == json.dumps(one.as_dict())


def test_batched_veff_takes_the_log_point_by_point():
    """NumPy's vectorised log differs from libm in the last bit; veff keeps
    math.log, so a batch gives the one-point bits."""
    points = np.random.default_rng(3).uniform(-0.5, 0.5, size=(40, 2))
    rep = boltzmann("eta", point_geometry(builtin("conformal2d", 2), points), 0.3, 16)
    assert rep.veff.tolist() == [-math.log(b) / 0.3 for b in rep.B_value.tolist()]


def test_batched_failures_name_the_first_offending_point(monkeypatch):
    spec = builtin("conformal2d", 2, {"e": -0.1})   # R = 0.8 exp(-2 sigma) > 0
    points = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.2, 0.0]])
    geom = point_geometry(spec, points)
    beta = 24.0                                      # B <= 0 where R >= 1
    assert (geom.R >= 1.0).tolist() == [False, False, True, True]
    with pytest.raises(ValueError, match=r"order-beta expansion at \[-1\.0, 0\.0\]$"):
        boltzmann("covariant", geom, beta, 16)
    # without the measure vertex the counters no longer cancel at any point
    catalog = [v for v in vertex_catalog(geom, 0.1, "covariant") if v.label != "measure"]
    monkeypatch.setattr(ecp, "vertex_catalog", lambda *args: catalog)
    with pytest.raises(ValueError, match=r"^counter polynomial is divergent: "
                                         r"CounterPolynomial\(.*\) at \[0\.0, 0\.0\]$"):
        boltzmann("covariant", geom, 0.1, 16)


def test_sweep_across_a_block_boundary_matches_one_point_ecp_calls():
    """A sweep of block_points(3) + 2 points runs two geometry blocks; each row
    carries the repr of the float the one-point ecp call reports."""
    points = np.random.default_rng(11).uniform(-0.4, 0.4, size=(block_points(3) + 2, 3))
    chart = ["--builtin", "hyperbolic-ball:3"]
    text = ";".join(",".join(map(repr, q.tolist())) for q in points)
    out = _cli_stdout(["sweep", *chart, "--points=" + text, "--routes", "covariant,eta",
                       "--beta", "0.1"])
    assert "np." not in out
    rows = out.splitlines()[1:]
    assert len(rows) == 2 * len(points)
    want = []
    for q in points:
        point = ",".join(map(repr, q.tolist()))
        for route in ("covariant", "eta"):
            doc = json.loads(_cli_stdout(["ecp", "--route", route, *chart, "--point=" + point,
                                          "--beta", "0.1"]))
            want.append(f"{point},0.1,{route},{doc['B_coefficient']!r},{doc['discrepancy']!r}")
    assert rows == want


@pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan, 0.0])
def test_one_check_rejects_a_beta_that_is_not_finite_and_positive(beta):
    """PeriodicPropagator, seeley_density and partition_function reject beta
    with one message. Before, PeriodicPropagator took inf and read nan as an
    overflow of omega_M, and the two densities returned NaN with a
    RuntimeWarning for inf and nan."""
    spec = builtin("flat", 2)
    geom = point_geometry(spec, [0.0, 0.0])
    grid = QuadratureGrid(kind="box", bounds=((0.0, 1.0), (0.0, 1.0)), n=4)
    for call in (lambda: PeriodicPropagator(beta, 4), lambda: seeley_density(geom, beta),
                 lambda: partition_function(spec, beta, grid)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"beta must be a finite float > 0, got {beta!r}"
