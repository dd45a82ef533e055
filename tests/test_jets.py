import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvepath.jets import JET_FUNCTIONS, Jet2


def fd_grad(f, q, h):
    D = len(q)
    out = np.empty(D)
    for k in range(D):
        e = np.zeros(D); e[k] = h
        out[k] = (-f(q + 2*e) + 8*f(q + e) - 8*f(q - e) + f(q - 2*e)) / (12*h)
    return out


def fd_hess(f, q, h):
    return np.stack([fd_grad(lambda x: fd_grad(f, x, h)[k], q, h) for k in range(len(q))])


def sample_function(q):
    # generic smooth scalar combining every arithmetic path
    x, y = q
    return (np.sin(x * y) + np.exp(0.3 * x) / (2.0 + np.cos(y))
            + (1.0 + 0.1 * x * x) ** 3 - np.sqrt(4.0 + x + 0.5 * y))


def sample_jet(q):
    # q has shape (2,) or (N, 2): one point or a batch
    x = Jet2.coordinate(q[..., 0], 0, 2)
    y = Jet2.coordinate(q[..., 1], 1, 2)
    return ((x * y).sin() + (0.3 * x).exp() / ((x * 0.0 + 2.0) + y.cos())
            + (1.0 + 0.1 * x * x) ** 3 - (4.0 + x + 0.5 * y).sqrt())


def test_jet_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(25):
        q = rng.uniform(-1.0, 1.0, size=2)
        jet = sample_jet(q)
        h = 1e-3
        assert jet.value == pytest.approx(sample_function(q), rel=1e-12)
        g = fd_grad(sample_function, q, h)
        assert np.allclose(jet.grad, g, rtol=1e-6, atol=1e-8)
        hess = fd_hess(sample_function, q, 1e-3)
        assert np.allclose(jet.hess, hess, rtol=1e-5, atol=1e-6)


def test_batch_matches_single_points():
    qs = np.random.default_rng(7).uniform(-1.0, 1.0, size=(17, 2))
    batch = sample_jet(qs)
    for k, q in enumerate(qs):
        one = sample_jet(q)
        assert batch.value[k] == one.value
        assert np.array_equal(batch.grad[..., k], one.grad)
        assert np.array_equal(batch.hess[..., k], one.hess)


def test_symmetry_invariants():
    jet = sample_jet(np.array([0.4, -0.6]))
    assert np.allclose(jet.hess, jet.hess.T)


@pytest.mark.parametrize("name", sorted(JET_FUNCTIONS))
def test_function_table_against_differences(name):
    fn = JET_FUNCTIONS[name]
    base = {"sqrt": 2.3, "log": 1.7}.get(name, 0.4)

    def scalar(q):
        import math
        u = base + 0.3 * q[0] - 0.2 * q[1] + 0.15 * q[0] * q[1]
        return getattr(math, name)(u)

    q = np.array([0.2, -0.3])
    x = Jet2.coordinate(q[0], 0, 2)
    y = Jet2.coordinate(q[1], 1, 2)
    jet = fn(base + 0.3 * x - 0.2 * y + 0.15 * x * y)
    assert jet.value == pytest.approx(scalar(q), rel=1e-13)
    assert np.allclose(jet.grad, fd_grad(scalar, q, 1e-3), rtol=1e-7, atol=1e-9)
    assert np.allclose(jet.hess, fd_hess(scalar, q, 1e-3), rtol=1e-4, atol=1e-5)


def test_integer_powers():
    x = Jet2.coordinate(1.3, 0, 1)
    assert (x ** 4).value == pytest.approx(1.3 ** 4)
    assert (x ** 4).grad[0] == pytest.approx(4 * 1.3 ** 3)
    assert (x ** -2).grad[0] == pytest.approx(-2 * 1.3 ** -3)
    assert (x ** 0).value == 1.0
    with pytest.raises(TypeError):
        x ** 0.5


def test_powers_are_products_in_a_fixed_order(monkeypatch):
    # x^2 and x^3 are the products x x and (x x) x, bit for bit; a huge
    # exponent takes two products per binary digit, not one per unit
    x = sample_jet(np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 2)))
    for power, product in ((x ** 2, x * x), (x ** 3, (x * x) * x)):
        for part in ("value", "grad", "hess"):
            assert np.array_equal(getattr(power, part), getattr(product, part))
    products = []
    multiply = Jet2.__mul__
    monkeypatch.setattr(Jet2, "__mul__", lambda a, b: products.append(1) or multiply(a, b))
    half = Jet2.coordinate(0.5, 0, 1)
    assert (half ** 61).value == 0.5 ** 61 and (half ** 61).grad[0] == pytest.approx(61 * 0.5 ** 60)
    products.clear()
    huge = half ** 10**12
    assert huge.value == 0.0 and len(products) <= 2 * (10**12).bit_length()


def test_domain_errors():
    x = Jet2.coordinate(-1.0, 0, 1)
    with pytest.raises(ValueError):
        x.sqrt()
    with pytest.raises(ValueError):
        x.log()
    with pytest.raises(ZeroDivisionError):
        Jet2.constant(1.0, 1) / Jet2.constant(0.0, 1)


@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.lists(st.floats(-2, 2), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_product_rule_is_bilinear(a, b):
    # (sum_i a_i x_i)(sum_i b_i x_i) has hessian a b^T + b a^T exactly
    q = np.array([0.3, -0.1, 0.7])
    xs = [Jet2.coordinate(q[i], i, 3) for i in range(3)]
    u = sum((a[i] * xs[i] for i in range(3)), Jet2.constant(0.0, 3))
    v = sum((b[i] * xs[i] for i in range(3)), Jet2.constant(0.0, 3))
    prod = u * v
    expected = np.outer(a, b) + np.outer(b, a)
    assert np.allclose(prod.hess, expected, atol=1e-12)
