import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvepath.cli import main
from curvepath.propagator import CounterPolynomial, PeriodicPropagator


def test_equal_time_value():
    p = PeriodicPropagator(beta=0.9, M=10)
    assert p.green_closed(0.0) == pytest.approx(0.9 / 12, rel=1e-15)


def test_half_period_value():
    beta = 1.3
    p = PeriodicPropagator(beta, 10)
    assert p.green_closed(beta / 2) == pytest.approx(-beta / 24, rel=1e-13)
    # cross-check with a deep mode sum
    deep = PeriodicPropagator(beta, 10**4)
    assert deep.green_modes(beta / 2) == pytest.approx(-beta / 24, rel=1e-7)


def test_integral_over_period_vanishes():
    beta = 0.7
    p = PeriodicPropagator(beta, 4)
    x, w = np.polynomial.legendre.leggauss(40)
    nodes = 0.5 * beta * (x + 1)
    assert abs(np.sum(0.5 * beta * w * p.green_closed(nodes))) < 1e-12


def test_periodicity_and_symmetry():
    beta = 0.61
    p = PeriodicPropagator(beta, 7)
    for x in (0.13, 0.4, 0.55):
        assert p.green_closed(x) == pytest.approx(p.green_closed(x + beta), abs=1e-15)
        assert p.green_modes(0.2, 0.2 + x) == pytest.approx(p.green_modes(0.2 + x, 0.2),
                                                            abs=1e-15)


def test_single_mode_pair():
    beta = 1.0
    p = PeriodicPropagator(beta, 1)
    assert p.green_modes(0.0) == pytest.approx(beta / (2 * math.pi**2), rel=1e-14)


def test_mode_sum_tail_bound():
    beta, M = 1.0, 1000
    p = PeriodicPropagator(beta, M)
    x = 0.3 * beta
    assert abs(p.green_modes(x) - p.green_closed(x)) <= 3 / (2 * math.pi**2 * M)


def test_equal_time_table_counters(capsys):
    beta, M = 0.8, 5
    p = PeriodicPropagator(beta, M)
    pairs = p.pair_counters()
    assert pairs[(0, 1)].value_at(M) == 0.0
    assert pairs[(1, 1)].value_at(M) == pytest.approx(10 / beta, rel=1e-14)
    assert pairs[(0, 0)].value_at(M) == pytest.approx(beta / 12, rel=1e-15)
    assert p.green0_truncated() < beta / 12
    # the measure delta counts all N_all = 2M + 1 eigenmodes
    assert main(["propagator", "--beta", repr(beta), "--M", str(M)]) == 0
    delta = CounterPolynomial(**json.loads(capsys.readouterr().out)["delta_measure0"])
    assert delta.value_at(M) == pytest.approx(11 / beta, rel=1e-14)


def test_ode_residual_small():
    beta = 1.0
    p = PeriodicPropagator(beta, 200)
    grid = np.linspace(0.05, 0.95, 41) * beta
    assert p.ode_residual(grid) <= 1e-12


def test_ode_residual_guards_coincidence():
    p = PeriodicPropagator(1.0, 100)
    with pytest.raises(ValueError, match="coincidence"):
        p.ode_residual([1e-5])


def test_truncated_modes_are_l2_projection():
    # difference to the closed form is orthogonal to every kept mode; the
    # closed-form coefficient integral is elementary: <G, cos(om_k x)> = 1/om_k^2
    beta, M = 0.7, 24
    p = PeriodicPropagator(beta, M)
    for k in (1, 3, M):
        om = 2 * math.pi * k / beta
        N = 8 * (M + k)
        grid = beta * np.arange(N) / N
        modes_part = float(np.sum(p.green_modes(grid) * np.cos(om * grid)) * beta / N)
        assert modes_part == pytest.approx(1 / om**2, abs=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        PeriodicPropagator(-1.0, 5)
    with pytest.raises(ValueError):
        PeriodicPropagator(1.0, 0)


# --- counter polynomial algebra ---------------------------------------------

def test_counter_polynomial_finite_logic():
    cp = CounterPolynomial(constant=1.0, coeff_nprop=0.5, coeff_nall=-0.5)
    assert cp.is_finite
    assert cp.finite_value() == pytest.approx(0.5)
    assert cp.value_at(3) == pytest.approx(1.0 + 0.5 * 6 - 0.5 * 7)
    div = CounterPolynomial(coeff_nprop=1.0)
    assert not div.is_finite
    with pytest.raises(ValueError):
        div.finite_value()


def test_counter_polynomial_product_guard():
    a = CounterPolynomial(coeff_nprop=1.0)
    b = CounterPolynomial(coeff_nall=1.0)
    with pytest.raises(ValueError):
        a * b
    assert (a * CounterPolynomial(constant=2.0)).coeff_nprop == 2.0


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.integers(1, 100), st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_counter_algebra_linearity(c1, p1, a1, c2, p2, a2, M, s):
    x = CounterPolynomial(c1, p1, a1)
    y = CounterPolynomial(c2, p2, a2)
    assert (x + y).value_at(M) == pytest.approx(x.value_at(M) + y.value_at(M),
                                                rel=1e-12, abs=1e-12)
    assert x.scaled(s).value_at(M) == pytest.approx(s * x.value_at(M),
                                                    rel=1e-12, abs=1e-12)


def test_batched_counter_polynomials_act_point_by_point():
    a = CounterPolynomial(np.array([2.0, 3.0, -1.0]), np.zeros(3), np.zeros(3))
    b = CounterPolynomial(np.array([5.0, 7.0, 0.5]), np.array([0.0, 1.0, 0.0]),
                          np.array([0.0, 0.0, -2.0]))
    for product in (a * b, b * a):          # a batch mixing counter-free and counter points
        for k in range(3):
            assert product.row(k) == a.row(k) * b.row(k)
    assert b.is_finite.tolist() == [True, False, False]
    with pytest.raises(ValueError, match=r"divergent: CounterPolynomial\(constant=7\.0, "
                                         r"coeff_nprop=1\.0, coeff_nall=0\.0\)"):
        b.finite_value()
    with pytest.raises(ValueError, match="outside the algebra"):
        b * b


def test_mode_sums_keep_their_magnitude_where_one_over_omega_squared_underflows(capsys):
    # (2 / beta) / omega_m^2 = beta / (2 pi^2 m^2); at beta = 1e-300 the
    # quotient 1 / omega^2 alone is 0.0
    assert main(["propagator", "--M=1", "--beta=1e-300"]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = 1e-300 / (2 * math.pi**2)
    assert doc["green0_truncated"] == pytest.approx(want, rel=1e-15)
    assert doc["green_modes"] == pytest.approx(want, rel=1e-15)
    p = PeriodicPropagator(1e-300, 3)
    assert p.green0_truncated() == pytest.approx(want * (1 + 1 / 4 + 1 / 9), rel=1e-15)
    x = np.array([0.0, 0.3e-300])
    assert np.allclose(p.green_modes(x), want * np.cos(np.multiply.outer(x, p.omega([1, 2, 3])))
                       @ (1 / np.array([1.0, 4.0, 9.0])), rtol=1e-14, atol=0)
    # on either side of the switch the two forms agree
    for beta in (2.5e-153, 3.5e-153):
        q = PeriodicPropagator(beta, 3)
        assert q.green0_truncated() == pytest.approx(beta / (2 * math.pi**2) * (1 + 1 / 4 + 1 / 9),
                                                     rel=1e-14)


@pytest.mark.parametrize("beta", [1e-300, 2.5e-153, 3.5e-153, 6e154, 8.3e154, 1e160, 1e300])
def test_scaled_forms_hold_at_both_ends_of_the_range(beta):
    # the last 1 / omega_m^2 underflows below about 1e-153 M, and their sum
    # overflows above about 7e154 at M = 3 (1e160 and 1e300: 1 / omega_1^2
    # alone does); on either side the mode sums and the Monte Carlo draw's
    # spread keep their magnitude, and no warning is raised
    m = np.arange(1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = PeriodicPropagator(beta, 3)
        sums, spread, modes = p.green0_truncated(), p.mode_sd(), p.green_modes(0.25 * beta)
    scale = beta / (2 * math.pi**2)
    assert sums == pytest.approx(scale * np.sum(1.0 / m**2), rel=1e-13)
    assert modes == pytest.approx(scale * np.sum(np.cos(0.5 * math.pi * m) / m**2), rel=1e-13)
    assert np.allclose(spread, math.sqrt(beta / 8) / (math.pi * m), rtol=1e-13, atol=0)


def test_mode_sd_keeps_its_bits_in_range():
    beta, M = 0.37, 64
    p = PeriodicPropagator(beta, M)
    omega = 2.0 * math.pi * np.arange(1, M + 1) / beta
    assert np.array_equal(p.mode_sd(), np.sqrt(1.0 / (2.0 * beta * omega**2)))
