import functools
import json
import math

import numpy as np
import pytest

import re
import time

from curvepath import expressions as ex
from curvepath import metrics as mx
from curvepath.geometry import point_geometry
from curvepath.jets import Jet2
from curvepath.metrics import (DomainError, MetricError, builtin,
                               embedding_to_stereographic, eval_metric_jet, parse_metric)


def metric_file(dim, coords, g, name="test", params=None):
    return json.dumps({"name": name, "dim": dim, "coords": coords,
                       "params": params or {}, "g": g})


def metric_values(spec, q):
    """g(q) as a D x D array: the values of the metric's jets at one point."""
    return eval_metric_jet(spec, q)[0]


def test_flat_line_metric():
    spec = parse_metric(metric_file(1, ["q1"], [["1"]]))
    assert spec.dim == 1
    g, dg, ddg = eval_metric_jet(spec, [0.37])
    assert g[0, 0] == 1.0
    assert np.all(dg == 0) and np.all(ddg == 0)


def test_written_out_sphere_equals_builtin():
    # the 2-sphere embedding chart spelled out component by component
    den = "1 - q1*q1 - q2*q2"
    g = [["1/(%s) * (1 - q2*q2)" % den, "q1*q2/(%s)" % den],
         [None, "1/(%s) * (1 - q1*q1)" % den]]
    spec = parse_metric(metric_file(2, ["q1", "q2"], g))
    ref = builtin("sphere", 2)
    rng = np.random.default_rng(5)
    for _ in range(6):
        q = 0.6 * rng.uniform(-1, 1, size=2)
        a = eval_metric_jet(spec, q)
        b = eval_metric_jet(ref, q)
        for i in range(2):
            for j in range(2):
                assert a[0][i, j] == pytest.approx(b[0][i, j], rel=1e-12)
                assert np.allclose(a[1][:, i, j], b[1][:, i, j], rtol=1e-11, atol=1e-12)
                assert np.allclose(a[2][:, :, i, j], b[2][:, :, i, j], rtol=1e-10, atol=1e-11)


def test_explicit_asymmetry_rejected():
    g = [["1", "q1"], ["q2", "1"]]
    with pytest.raises(MetricError, match="differ"):
        parse_metric(metric_file(2, ["q1", "q2"], g))


def test_upper_triangle_mirrored():
    g = [["1", "q1*q2"], [None, "1"]]
    spec = parse_metric(metric_file(2, ["q1", "q2"], g))
    gv = metric_values(spec, [0.2, 0.5])
    assert gv[1, 0] == gv[0, 1] == pytest.approx(0.1)


def test_unknown_identifier_rejected():
    with pytest.raises(MetricError, match="unknown identifier"):
        parse_metric(metric_file(1, ["q1"], [["1 + z"]]))


def test_dimension_mismatch_rejected():
    with pytest.raises(MetricError):
        parse_metric(metric_file(2, ["q1", "q2"], [["1"]]))


@pytest.mark.parametrize("coords,params,message", [
    # a repeated name bound the second axis only; a parameter shadowed its coordinate
    (("x", "x"), {}, "coordinate names must be distinct, got ['x', 'x']"),
    (("a", "y"), {"a": 0.5}, "coordinate name(s) ['a'] are also parameter names"),
    (("x", "2y"), {}, "coordinate name '2y' is not an identifier"),
    (("x", "sin(y)"), {}, "coordinate name 'sin(y)' is not an identifier"),
    (("x", ""), {}, "coordinate name '' is not an identifier"),
    (("x", 1), {}, "coordinate name 1 is not an identifier"),
], ids=["repeated", "shadowed", "number", "call", "empty", "not-a-string"])
def test_coordinate_names_are_distinct_identifiers_no_parameter_takes(coords, params, message):
    flat = builtin("flat", 2)
    with pytest.raises(MetricError) as err:
        mx.MetricSpec(name="chart", dim=2, coords=coords, components=flat.components,
                      params=params)
    assert str(err.value) == message


@pytest.mark.parametrize("dim", [True, 2.0, "2", 0])
def test_dimension_must_be_a_positive_integer(dim):
    with pytest.raises(MetricError) as err:
        mx.MetricSpec(name="chart", dim=dim, coords=("x",), components=((ex.Num(1.0),),))
    assert str(err.value) == f"'dim' must be a positive integer, got {dim!r}"


def test_numpy_integer_dimension_is_accepted_as_an_int():
    flat = builtin("flat", 2)
    spec = mx.MetricSpec(name="chart", dim=np.int64(2), coords=flat.coords,
                         components=flat.components)
    assert type(spec.dim) is int and spec == mx.MetricSpec(
        name="chart", dim=2, coords=flat.coords, components=flat.components)


@pytest.mark.parametrize("name,params,message", [
    ("flat", {"a": 1.0}, "unknown parameter(s) ['a'] for builtin chart 'flat'; "
                         "it takes no parameters"),
    ("conformal2d", {"z": 1.0, "a": 0.1}, "unknown parameter(s) ['z'] for builtin chart "
                                          "'conformal2d'; it takes ['a', 'b', 'c', 'e']"),
])
def test_builtin_rejects_a_parameter_it_does_not_have(name, params, message):
    with pytest.raises(MetricError) as err:
        builtin(name, 2, params)
    assert str(err.value) == message


def test_params_are_usable():
    spec = parse_metric(metric_file(1, ["q1"], [["1 + a*q1^2"]], params={"a": 2.0}))
    assert metric_values(spec, [0.5])[0, 0] == pytest.approx(1.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), None, "-inf", "x"])
def test_non_finite_params_are_rejected_by_name(value):
    with pytest.raises(MetricError, match="parameter 'a' must be a finite number"):
        parse_metric(metric_file(1, ["q1"], [["1 + a*q1^2"]], params={"a": value}))
    # library callers of the builtin catalog meet the same check
    with pytest.raises(MetricError, match="parameter 'a' must be a finite number"):
        builtin("conformal2d", 2, {"a": value})


@pytest.mark.parametrize("name", mx.BUILTIN_NAMES)
def test_metric_file_may_not_take_a_builtin_name(name):
    # outputs report the chart by name, so a file's chart may not pass for a builtin
    with pytest.raises(MetricError, match=f"metric name '{name}' is reserved"):
        parse_metric(metric_file(2, ["q1", "q2"], [["1", "0"], [None, "1"]], name=name))


def test_builtin_flat():
    spec = builtin("flat", 3)
    assert np.allclose(metric_values(spec, [0.1, -2.0, 5.0]), np.eye(3))


def test_builtin_sphere_values():
    spec = builtin("sphere", 2)
    assert np.allclose(metric_values(spec, [0.0, 0.0]), np.eye(2))
    g = metric_values(spec, [0.6, 0.0])
    assert g[0, 0] == pytest.approx(1.5625, rel=1e-14)
    assert np.linalg.det(g) == pytest.approx(1.5625, rel=1e-13)  # 1/(1 - 0.36)


def test_builtin_unknown_name():
    with pytest.raises(MetricError, match="unknown builtin"):
        builtin("torus", 2)


def test_builtin_dimension_is_bounded_by_the_parse_depth():
    # a builtin's sum over the D coordinates nests D + 4 deep
    top = ex.MAX_DEPTH - 4
    for name in ("hyperbolic-ball", "sphere-stereographic"):
        assert builtin(name, top).dim == top
    for D in (0, top + 1):
        with pytest.raises(MetricError, match=f"dimension must be 1 to {top}, got {D}"):
            builtin("hyperbolic-ball", D)


def _sphere_text(D):
    """The sphere builtin's components parsed from text, one string each."""
    qq = " + ".join(f"q{k + 1}*q{k + 1}" for k in range(D))
    return tuple(tuple(ex.parse(("1 + " if i == j else "")
                                + f"q{min(i, j) + 1}*q{max(i, j) + 1} / (1 - ({qq}))")
                       for j in range(D)) for i in range(D))


@pytest.mark.parametrize("D", range(1, 9))
def test_sphere_components_equal_the_parsed_text(D):
    assert builtin("sphere", D).components == _sphere_text(D)


def test_sphere_builds_quickly_at_the_top_dimension():
    top = ex.MAX_DEPTH - 4
    start = time.perf_counter()
    spec = mx._builtin_spec.__wrapped__("sphere", top, ())  # not the cached spec
    # each component shares one denominator object, compiled once
    assert time.perf_counter() - start <= 0.5
    assert spec.dim == top


def _tall(height):
    """1 + q1 under height - 2 signs: a tree height nodes tall."""
    node = ex.Var("q1")
    for _ in range(height - 2):
        node = ex.Neg(node)
    return ex.BinOp("+", ex.Num(1.0), node)


def test_code_built_component_at_the_depth_bound_constructs_and_hashes():
    specs = [mx.MetricSpec(name="tall", dim=1, coords=("q1",), components=((_tall(100),),))
             for _ in range(2)]
    assert specs[0] == specs[1] and hash(specs[0]) == hash(specs[1])


@pytest.mark.parametrize("height", [101, 500, 3000])
def test_code_built_component_past_the_depth_bound_is_named(height):
    tall, one = _tall(height), ex.Num(1.0)
    with pytest.raises(MetricError, match=r"^component \(1, 2\): expression nests deeper "
                                          r"than 100 levels$"):
        mx.MetricSpec(name="tall", dim=2, coords=("q1", "q2"), components=((one, tall), (tall, one)))


def _signed(node, count):
    """node under count signs."""
    for _ in range(count):
        node = ex.Neg(node)
    return node


@pytest.mark.parametrize("signs", [40, 41, 50])
def test_shared_subtree_reached_too_deep_is_named(signs):
    # one object t, 60 nodes tall, at the top of component (1, 1) and under
    # the signs in (1, 2): it is compiled once, and still measured there
    t, one = _tall(60), ex.Num(1.0)
    deep = _signed(t, signs)
    components = ((t, deep), (deep, one))
    if signs + 60 <= 100:
        mx.MetricSpec(name="t", dim=2, coords=("q1", "q2"), components=components)
        return
    with pytest.raises(MetricError, match=r"^component \(1, 2\): expression nests deeper "
                                          r"than 100 levels$"):
        mx.MetricSpec(name="t", dim=2, coords=("q1", "q2"), components=components)


@pytest.mark.parametrize("components,message", [
    (lambda one, q1, q2: ((one, q1), (q2, one)), "components (1, 2) and (2, 1) differ"),
    (lambda one, q1, q2: ((one, q1), (q1, ex.Var("z"))),
     "unknown identifier(s) ['z'] in component (2, 2)"),
], ids=["asymmetric", "unknown-identifier"])
def test_code_built_spec_names_components_1_based(components, message):
    # as parse_metric and eval_metric_jet do
    with pytest.raises(MetricError, match=f"^{re.escape(message)}$"):
        mx.MetricSpec(name="c", dim=2, coords=("q1", "q2"),
                      components=components(ex.Num(1.0), ex.Var("q1"), ex.Var("q2")))


def test_sphere_domain_error():
    spec = builtin("sphere", 2)
    with pytest.raises(DomainError):
        eval_metric_jet(spec, [0.9, 0.9])


def flat_components(D):
    return tuple(tuple(ex.Num(1.0 if i == j else 0.0) for j in range(D)) for i in range(D))


def test_domain_and_default_grid_come_from_the_spec_not_its_name():
    # a library chart may take a builtin's name; it keeps its own (whole) domain
    spec = mx.MetricSpec(name="sphere", dim=2, coords=("q1", "q2"), components=flat_components(2))
    assert (spec.domain, spec.default_grid) == (None, None)
    assert np.array_equal(metric_values(spec, [0.9, 0.9]), np.eye(2))
    assert point_geometry(spec, [0.9, 0.9]).R == 0.0
    for name in ("sphere", "hyperbolic-ball"):
        message = f"point [0.9, 0.9] outside domain of chart '{name}'"
        with pytest.raises(DomainError, match=re.escape(message)):
            eval_metric_jet(builtin(name, 2), [0.9, 0.9])
        assert builtin(name, 3).domain == "unit-ball"
    assert builtin("sphere", 2).default_grid == "sphere-polar"
    assert [builtin(n, 2).default_grid for n in ("sphere-stereographic", "hyperbolic-ball")] \
        == [None, None] and builtin("sphere", 3).default_grid is None
    with pytest.raises(MetricError, match="unknown domain 'torus'"):
        mx.MetricSpec(name="t", dim=1, coords=("q1",), components=flat_components(1),
                      domain="torus")


def count_operations(node):
    """Non-leaf nodes a tree walk visits."""
    children = [getattr(node, f) for f in ("arg", "left", "right", "base") if hasattr(node, f)]
    return (len(children) > 0) + sum(count_operations(c) for c in children)


def test_compiled_program_shares_repeated_subtrees():
    sphere = builtin("sphere", 4)
    upper = [sphere.components[i][j] for i in range(4) for j in range(i, 4)]
    operations = [op for op, _, _ in sphere.program.code if op not in ("num", "var")]
    assert sum(map(count_operations, upper)) == 104 and len(operations) == 28
    ball = builtin("hyperbolic-ball", 3).program
    assert ball.roots[0] == ball.roots[4] == ball.roots[8]
    # -0.0 == 0.0, but the literals have different bits and keep separate slots
    q1 = ex.Var("q1")
    g11 = ex.BinOp("+", ex.Num(1.0), ex.BinOp("*", ex.Num(0.0), q1))
    g22 = ex.BinOp("+", ex.Num(1.0), ex.BinOp("*", ex.Num(-0.0), q1))
    spec = mx.MetricSpec(name="zeros", dim=2, coords=("q1", "q2"),
                         components=((g11, ex.Num(-0.0)), (ex.Num(-0.0), g22)))
    literals = [a for op, a, _ in spec.program.code if op == "num" and a == 0.0]
    assert [math.copysign(1.0, a) for a in literals] == [1.0, -1.0]
    dg = eval_metric_jet(spec, [0.5, 0.25])[1]
    assert np.signbit(dg[:, 0, 0]).tolist() == [False, False]
    assert np.signbit(dg[:, 1, 1]).tolist() == [True, True]
    assert np.signbit(metric_values(spec, [0.5, 0.25])[0, 1])


@pytest.mark.parametrize("name,point,divisions", [
    ("sphere:4", [0.1, 0.2, -0.1, 0.05], 10), ("sphere:2", [0.3, 0.1], 3),
    ("hyperbolic-ball:3", [0.25, 0.1, -0.2], 1)])
def test_one_reciprocal_per_divisor(monkeypatch, name, point, divisions):
    """Every division of the chart's program reads one shared divisor slot
    (1 - |q|^2); one evaluation takes its reciprocal once, not once per
    division."""
    chart, _, dim = name.partition(":")
    spec = builtin(chart, int(dim))
    divisors = [b for op, _, b in spec.program.code if op == "/"]
    assert len(divisors) == divisions and len(set(divisors)) == 1
    calls = []
    reciprocal = Jet2._reciprocal
    monkeypatch.setattr(Jet2, "_reciprocal", lambda self: calls.append(1) or reciprocal(self))
    eval_metric_jet(spec, point)
    assert len(calls) == 1


def test_sphere_d1_jets():
    # g11 = 1/(1-q^2) = 1 + q^2 + ...: first derivative 0, second 2 at origin
    spec = builtin("sphere", 1)
    _, dg, ddg = eval_metric_jet(spec, [0.0])
    assert dg[0, 0, 0] == pytest.approx(0.0, abs=1e-15)
    assert ddg[0, 0, 0, 0] == pytest.approx(2.0, rel=1e-14)


def fd4(f, q, k, h):
    e = np.zeros(len(q)); e[k] = h
    return (-f(q + 2*e) + 8*f(q + e) - 8*f(q - e) + f(q - 2*e)) / (12*h)


@pytest.mark.parametrize("name,D", [("sphere", 2), ("sphere-stereographic", 2),
                                    ("hyperbolic-ball", 2), ("conformal2d", 2),
                                    ("sphere", 3)])
def test_jets_match_finite_differences(name, D):
    # 20 interior points per chart, 100 across the catalog
    spec = builtin(name, D)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = 0.5 * rng.uniform(-1, 1, size=D)
        dg = eval_metric_jet(spec, q)[1]
        for i in range(D):
            for j in range(D):
                def comp(x, i=i, j=j):
                    return metric_values(spec, x)[i, j]
                for k in range(D):
                    fd = fd4(comp, q, k, 1e-3)
                    assert dg[k, i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_random_expression_metric_jets_match_fd():
    g = [["exp(0.3*q1) + q2^2", "sin(q1*q2)/4"], [None, "2 + cos(q1)"]]
    spec = parse_metric(metric_file(2, ["q1", "q2"], g, name="random"))
    rng = np.random.default_rng(13)
    for _ in range(10):
        q = rng.uniform(-0.5, 0.5, size=2)
        dg = eval_metric_jet(spec, q)[1]
        for i in range(2):
            for j in range(2):
                def comp(x, i=i, j=j):
                    return metric_values(spec, x)[i, j]
                for k in range(2):
                    fd = fd4(comp, q, k, 1e-3)
                    assert dg[k, i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_chart_maps_are_inverse():
    # the closed-form inverse of the map: q = 2u / (1 + |u|^2)
    rng = np.random.default_rng(17)
    for _ in range(8):
        q = 0.7 * rng.uniform(-1, 1, size=2)
        u = embedding_to_stereographic(q)
        assert np.allclose(2.0 * u / (1.0 + u @ u), q, atol=1e-14)


def test_spec_is_immutable():
    spec = builtin("flat", 2)
    with pytest.raises(Exception):
        spec.dim = 3


def test_spec_params_are_read_only():
    for spec in (builtin("conformal2d", 2, {"a": 0.1}),
                 parse_metric(metric_file(1, ["q1"], [["a"]], params={"a": 2.0}))):
        with pytest.raises(TypeError):
            spec.params["a"] = 1.0
    assert builtin("conformal2d", 2, {"a": 0.1}).params["a"] == 0.1


def test_equal_specs_hash_equally_and_key_caches():
    spec = builtin("conformal2d", 2, {"a": 0.1})
    # the same chart built again, with its parameters in another order
    twin = mx.MetricSpec(name=spec.name, dim=2, coords=spec.coords, components=spec.components,
                         params=dict(reversed(spec.params.items())), domain=spec.domain,
                         default_grid=spec.default_grid)
    assert twin == spec and twin is not spec and hash(twin) == hash(spec)
    assert {spec: "chart"}[twin] == "chart"
    calls = []

    @functools.lru_cache(maxsize=None)
    def dimension(chart):
        calls.append(chart)
        return chart.dim

    assert dimension(spec) == dimension(twin) == 2 and calls == [spec]


def test_builtin_specs_are_validated_once_per_key(monkeypatch):
    calls = []
    validate = mx.MetricSpec.__post_init__

    def counting(spec):
        calls.append(spec.name)
        validate(spec)

    monkeypatch.setattr(mx.MetricSpec, "__post_init__", counting)
    params = {"e": 0.0123, "a": -0.0456}
    spec = builtin("conformal2d", 2, params)
    assert calls == ["conformal2d"]
    assert builtin("conformal2d", 2, dict(reversed(params.items()))) is spec
    assert calls == ["conformal2d"]
    assert spec.params == {"a": -0.0456, "b": -0.2, "c": 0.15, "e": 0.0123}
    assert builtin("conformal2d", 2, {"e": 0.0124, "a": -0.0456}) is not spec
    assert len(calls) == 2
