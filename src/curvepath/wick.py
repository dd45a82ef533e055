"""Gaussian expectation values of polynomial vertices over periodic,
zero-mode-free fluctuations.

Every expectation walks one plan, compiled once per dimension and list of
slot groups (one vertex, or two for the connected second order): the live
Wick pairings, split into equal-time pairs and cross lines, and the distinct
pairwise einsum steps of their contractions, each run once per call. One sum
multiplies, per pairing, the cross-line value, the equal-time pair values and
the contraction, fed the rule table (exact at any cutoff) or one cutoff's values.

First order has no cross lines; its equal-time pairs take the coincidence
propagator beta/12, the vanishing mixed derivative and a mode counter for
the double derivative (the measure delta counts all modes). At second order
the double time integral reduces by periodicity to one integral over the
time difference of a product of cross lines, classified by the derivative
orders they join. Locally integrable products are polynomials on the open
circle, so each integral is an exact rational times a power of beta.
Products containing the delta-like line d_tau d_tau' G alongside other
singular factors are genuinely ambiguous as distributions; they are assigned
the values forced by the defining equation of the kernel together with route
independence of the assembled Boltzmann factor:

    integral G (G'')^2          -> N_all/12 - 1/24      (counter polynomial)
    integral (G')^2 G''         -> smooth(0)/8 rule, giving -1/24 here

A sharp symmetric mode cutoff does NOT reproduce these two entries: the
kink of G at coincidence has a logarithmically divergent moment against the
squared Dirichlet kernel, so the truncated triple sum drifts like log M in
the first channel and misses the finite part of the second. The engine uses
the rule table only, and the acceptance suite validates it; the sharp sums
stay available as a diagnostic (second_order_mode_series).

expand assembles a route's vertex list into the order-beta expansion
B = 1 - <A> + 1/2 <A^2>; every route and check reads it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import PointGeometry
from .propagator import CounterPolynomial, PeriodicPropagator

__all__ = [
    "Vertex", "EngineError", "RouteError",
    "pairings", "vertex_catalog", "expect_first_order",
    "expect_first_order_truncated", "expect_second_order_connected",
    "second_order_mode_series", "expand", "check_divergence_cancellation",
    "richardson_limit", "smooth_coefficient",
]

_LETTERS = "abcdefgh"


class EngineError(ValueError):
    pass


class RouteError(ValueError):
    pass


@dataclass(frozen=True)
class Vertex:
    """One polynomial interaction term: prefactor * integral coeff * fields.

    slots lists the derivative order (0 or 1) of each field; coeff has one
    tensor index per slot, after an optional leading axis of N that holds one
    tensor per point of a batch. The prefactor is beta**beta_power, times the
    measure coincidence counter when measure_counter is set. piece names the
    entry of the route's report the vertex feeds.
    """

    label: str
    coeff: np.ndarray
    slots: tuple[int, ...]
    beta_power: int = 0
    measure_counter: bool = False
    piece: str = ""

    def __post_init__(self):
        n = len(self.slots)
        if n not in (2, 3, 4):
            raise EngineError(f"vertex {self.label!r}: slot count must be 2..4, got {n}")
        if any(s not in (0, 1) for s in self.slots):
            raise EngineError(f"vertex {self.label!r}: derivative orders must be 0 or 1")
        if self.coeff.ndim - n not in (0, 1):
            raise EngineError(f"vertex {self.label!r}: coeff rank {self.coeff.ndim} != slots {n}")

    def prefactor(self, beta: float) -> CounterPolynomial:
        base = beta**self.beta_power
        if self.measure_counter:
            return CounterPolynomial(coeff_nall=base / beta)
        return CounterPolynomial(constant=base)

    def prefactor_truncated(self, beta: float, M: int) -> float:
        base = beta**self.beta_power
        if self.measure_counter:
            return base * (2 * M + 1) / beta
        return base


def pairings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of n items ((n-1)!! of them)."""
    def rec(rest: tuple[int, ...]):
        if not rest:
            yield ()
        for k in range(1, len(rest)):
            for tail in rec(rest[1:k] + rest[k + 1:]):
                yield ((rest[0], rest[k]),) + tail

    if n % 2 == 0:
        yield from rec(tuple(range(n)))


# --- compiled pairings ------------------------------------------------------------

class _Term(NamedTuple):
    """One live Wick pairing of a slot signature.

    equal_time holds the derivative orders at the ends of each equal-time
    pair, cross the sorted orders of each cross line (second order only),
    spec the einsum that contracts the vertex coefficients with one inverse
    metric per pair, over any leading batch axes, and result the position of
    that contraction among the plan's operands.
    """

    equal_time: tuple[tuple[int, int], ...]
    cross: tuple[tuple[int, int], ...]
    spec: str
    result: int


class _Plan(NamedTuple):
    """The live terms of one list of slot groups at one dimension and the
    distinct pairwise steps of their contractions: (a, b, spec) runs spec on
    operands a and b (the coefficients, then g_inv, then earlier results)."""

    terms: tuple[_Term, ...]
    steps: tuple[tuple[int, int, str], ...]


def _live_pairings(*slot_groups: tuple[int, ...]) -> tuple[tuple, ...]:
    """The live pairings of one vertex or two, as (pairing, equal_time,
    cross): no equal-time pair joins a field to a velocity (that coincidence
    value vanishes), and two vertices share at least two cross lines (the
    cumulant removes disconnected pieces, and a single cross line integrates
    to zero), an even number of them field-velocity lines (an odd number is
    odd under x -> -x, so both schemes give zero)."""
    n1, slots = len(slot_groups[0]), sum(slot_groups, ())
    live = []
    for pairing in pairings(len(slots)):
        cross = tuple(sorted((slots[i], slots[j]) for i, j in pairing if i < n1 <= j))
        internal = tuple((slots[i], slots[j]) for i, j in pairing if not i < n1 <= j)
        if any(a != b for a, b in internal) or len(slot_groups) == 2 and (
                len(cross) < 2 or sum(a != b for a, b in cross) % 2):
            continue
        live.append((pairing, internal, cross))
    return tuple(live)


@functools.lru_cache(maxsize=None)
def _cross_signatures(*slot_groups: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The distinct cross signatures of the live pairings, in pairing order."""
    return tuple(dict.fromkeys(cross for *_, cross in _live_pairings(*slot_groups)))


@functools.lru_cache(maxsize=None)
def _plan(D: int, *slot_groups: tuple[int, ...]) -> _Plan:
    """The live pairings of one vertex or two at dimension D, compiled.

    Each term contracts in the pairwise order einsum_path("optimal") picks,
    D^4 per point for the eta cubic square instead of D^6; an intermediate
    keeps its letters still shared with another operand, in alphabetical
    order. A step is keyed by its operands and its spec with the letters
    renamed in order of first appearance: a step an earlier term takes is
    not repeated."""
    groups = [_LETTERS[s:s + len(g)] for s, g in zip((0, len(slot_groups[0])), slot_groups)]
    terms, positions = [], {}  # step key -> (position of its result, step)
    for pairing, internal, cross in _live_pairings(*slot_groups):
        lines = [_LETTERS[i] + _LETTERS[j] for i, j in pairing]
        path, _ = np.einsum_path(",".join(groups + lines) + "->",
                                 *(np.empty((D,) * len(s)) for s in groups + lines),
                                 optimize="optimal")
        live = [*enumerate(groups), *((len(groups), s) for s in lines)]  # (position, letters)
        for i, j in path[1:]:
            (a, left), (b, right) = live[i], live[j]
            del live[j], live[i]
            kept = "".join(sorted(set(left + right) & set("".join(s for _, s in live))))
            step = f"...{left},...{right}->...{kept}"
            rename = str.maketrans(dict(zip(dict.fromkeys(left + right), _LETTERS)))
            key = (a, b, step.translate(rename))
            at = positions.setdefault(key, (len(groups) + 1 + len(positions), (a, b, step)))[0]
            live.append((at, kept))
        spec = ",".join("..." + s for s in groups + lines) + "->..."
        terms.append(_Term(internal, cross, spec, live[0][0]))
    return _Plan(tuple(terms), tuple(step for _, step in positions.values()))


def _contractions(plan: _Plan, coeffs: Sequence[np.ndarray], g_inv: np.ndarray) -> list:
    """coeffs and g_inv, then each step's result at every point of the batch (a
    scalar for one point). A step runs once, as a plain two-operand einsum
    that sums point by point in einsum's own order, never through tensordot
    or BLAS, so every point gets the bits of a one-point call."""
    operands = [*coeffs, g_inv]
    for a, b, step in plan.steps:
        operands.append(np.einsum(step, operands[a], operands[b]))
    return operands


_NO_CROSS_LINES = MappingProxyType({(): CounterPolynomial(constant=1.0)})


def _plan_sum(plan: _Plan, values: Sequence, pair_value: dict,
              cross_values: Mapping = _NO_CROSS_LINES) -> CounterPolynomial:
    """Sum over the plan of cross_values[cross lines] x equal-time pair values x
    the term's contraction, read from values (the plan's _contractions), in
    plan order. The values are counter polynomials, constant ones at a single
    cutoff; cross_values holds one per cross signature (first order has none)."""
    total = CounterPolynomial()
    for term in plan.terms:
        value = cross_values[term.cross]
        try:
            for t in term.equal_time:
                value = value * pair_value[t]
        except ValueError as exc:
            raise EngineError(f"pairing outside the rule table: {exc}") from None
        total = total + value.scaled(values[term.result])
    return total


# --- first order ---------------------------------------------------------------

def expect_first_order(v: Vertex, p: PeriodicPropagator, geom: PointGeometry) -> CounterPolynomial:
    """<integral of the vertex> under the free measure, as a counter polynomial."""
    plan = _plan(geom.dim, tuple(v.slots))
    total = _plan_sum(plan, _contractions(plan, (v.coeff,), geom.g_inv), p.pair_counters())
    return (total * v.prefactor(p.beta)).scaled(p.beta)  # beta from the time integral


def expect_first_order_truncated(v: Vertex, p: PeriodicPropagator, geom: PointGeometry) -> float:
    """First-order value with the cutoff-M coincidence propagator.

    This is the number a Monte Carlo estimate at the same cutoff converges
    to; it differs from the counter-table value by the O(1/M) tail of the
    equal-time propagator.
    """
    plan = _plan(geom.dim, tuple(v.slots))
    total = _plan_sum(plan, _contractions(plan, (v.coeff,), geom.g_inv), p.pair_truncated())
    return total.constant * v.prefactor_truncated(p.beta, p.M) * p.beta


# --- second order: cross-line integrals ----------------------------------------

@functools.lru_cache(maxsize=None)
def smooth_coefficient(a: int, b: int) -> tuple[int, int]:
    """c(a, b), the integral over u in [0, 1] of g(u)^a g'(u)^b, as a reduced
    ratio (numerator, denominator) of integers.

    G(x) = beta g(x/beta) with g(u) = u^2/2 - u/2 + 1/12 and G'(x) = g'(u)
    = u - 1/2, so the integral of G^a (G')^b over one period is
    beta^(a+1) c(a, b); for example c(2, 0) = 1/720. The integrand is
    P(u) / (12^a 2^b) with P = (6u^2 - 6u + 1)^a (2u - 1)^b integral.
    """
    poly = [1]
    for factor in ((1, -6, 6),) * a + ((-1, 2),) * b:
        product = [0] * (len(poly) + len(factor) - 1)
        for i, p in enumerate(poly):
            for j, f in enumerate(factor):
                product[i + j] += p * f
        poly = product
    common = math.lcm(*range(1, len(poly) + 1))  # integral of u^k is 1/(k+1)
    numerator = sum(p * (common // (k + 1)) for k, p in enumerate(poly))
    denominator = common * 12**a * 2**b
    g = math.gcd(numerator, denominator)
    return numerator // g, denominator // g


def _smooth_product(beta: float, n00: int, n01: int) -> float:
    """integral over one period of G^n00 * (G')^n01, exactly."""
    numerator, denominator = smooth_coefficient(n00, n01)
    return numerator / denominator * beta ** (n00 + 1)


def cross_integral_table(beta: float, types: Sequence[tuple[int, int]]) -> CounterPolynomial:
    """integral over x of the product of cross lines, one line per (a, b) type.

    (a, b) are the derivative orders at the two ends; the line functions are
    (0,0) -> G, (0,1) -> -G', (1,0) -> +G', (1,1) -> G'' with the zero mode
    removed (equal to delta(x) - 1/beta as a distribution).
    """
    K = len(types)
    if K == 0:
        raise EngineError("no cross lines")
    if K == 1:
        return CounterPolynomial()  # single line integrates to zero (no zero mode)
    n01 = sum(1 for a, b in types if a + b == 1)
    n11 = sum(1 for a, b in types if (a, b) == (1, 1))
    n00 = K - n01 - n11
    if n01 % 2 == 1:
        return CounterPolynomial()  # odd under x -> -x
    sign = (-1.0) ** sum(1 for a, b in types if (a, b) == (0, 1))

    if n11 == 0:
        return CounterPolynomial(constant=sign * _smooth_product(beta, n00, n01))

    if n11 == 1:
        smooth = _smooth_product(beta, n00, n01)
        if n01 == 0:
            at0 = (beta / 12.0) ** n00
            return CounterPolynomial(constant=sign * (at0 - smooth / beta))
        if n01 == 2:
            # delta against (G')^2 Q(x): jump rule gives Q(0)/8
            q0 = (beta / 12.0) ** n00
            return CounterPolynomial(constant=sign * (q0 / 8.0 - smooth / beta))
        raise EngineError("distribution product (G')^%d G'' not in the rule table" % n01)

    if n11 == 2:
        if K == 2:
            # Parseval: integral G'' G'' counts the kept modes
            return CounterPolynomial(coeff_nprop=1.0 / beta)
        if K == 3 and n00 == 1:
            # integral G (G'')^2: the coincidence-counter channel
            return CounterPolynomial(constant=-sign / 24.0, coeff_nall=sign / 12.0)
        raise EngineError("distribution product with two G'' lines not in the rule table")

    raise EngineError("distribution product with %d G'' lines not in the rule table" % n11)


def cross_integral_modes(p: PeriodicPropagator, types: Sequence[tuple[int, int]]) -> float:
    """Sharp-cutoff evaluation at p's cutoff M: Kronecker-constrained mode sum over the lines.

    Exact at finite M; see the module docstring for why this scheme fails to
    converge for the two tabled singular channels. A sum that leaves the
    float64 range (beta below about 1e-100) raises EngineError.
    """
    beta, M = p.beta, p.M
    K = len(types)
    if K == 1:
        return 0.0
    ms = np.arange(-M, M + 1)
    om = p.omega(ms)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(ms == 0, 0.0, 1.0 / np.where(ms == 0, 1.0, om))

    def line(a: int, b: int) -> np.ndarray:
        f = ((-1j * om) ** a) * ((1j * om) ** b) * inv * inv
        return np.where(ms == 0, 0.0, f)

    with np.errstate(over="ignore", invalid="ignore"):
        arrays = [line(a, b) for a, b in types]
        conv = arrays[0]
        for arr in arrays[1:-1]:
            conv = np.convolve(conv, arr)
        # conv now indexed by total mode sum; pair against the last line at -m
        L = (conv.shape[0] - 1) // 2
        last = arrays[-1]
        lo = L - M
        window = conv[lo:lo + 2 * M + 1]
        total = float(np.real(np.sum(window * last[::-1])))
    try:
        value = total * beta ** (1 - K)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise EngineError(f"sharp-cutoff mode sum over {list(types)} leaves the float64 range "
                          f"at beta = {beta!r}, M = {M}")
    return value


def richardson_limit(series: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Two-step Richardson in 1/M over a doubling M-series."""
    if len(series) < 3:
        m, v = series[-1]
        return v, abs(v - series[0][1]) if len(series) > 1 else abs(v)
    v1 = 2 * series[-2][1] - series[-3][1]
    v2 = 2 * series[-1][1] - series[-2][1]
    r2 = (4 * v2 - v1) / 3.0
    return r2, abs(r2 - v2)


def expect_second_order_connected(v1: Vertex, v2: Vertex, p: PeriodicPropagator,
                                  geom: PointGeometry) -> CounterPolynomial:
    """Connected <A_1 A_2> over the free measure, from the rule-table cross
    integrals, as an exact counter polynomial."""
    if v1.measure_counter and v2.measure_counter:
        raise EngineError("two measure-counter prefactors exceed the counter algebra")
    pref = v1.prefactor(p.beta) * v2.prefactor(p.beta)
    groups = tuple(v1.slots), tuple(v2.slots)
    # the rule table rejects a channel it lacks before any contraction path is searched
    crosses = {cross: cross_integral_table(p.beta, cross) for cross in _cross_signatures(*groups)}
    plan = _plan(geom.dim, *groups)
    total = _plan_sum(plan, _contractions(plan, (v1.coeff, v2.coeff), geom.g_inv),
                      p.pair_counters(), crosses)
    return (total * pref).scaled(p.beta)


def second_order_mode_series(v1: Vertex, v2: Vertex, p: PeriodicPropagator, geom: PointGeometry,
                             ms: Sequence[int]) -> list[tuple[int, float]]:
    """Connected <A_1 A_2> from sharp-cutoff Kronecker sums, as (M, value)
    pairs at each cutoff of ms (a diagnostic; see the module docstring), with
    the cutoff-M pair table and prefactors of expect_first_order_truncated.
    richardson_limit extrapolates a doubling series."""
    groups = tuple(v1.slots), tuple(v2.slots)
    plan = _plan(geom.dim, *groups)
    values = _contractions(plan, (v1.coeff, v2.coeff), geom.g_inv)  # shared by every cutoff
    zero = np.zeros(geom.g_inv.shape[:-2])  # keeps the batch shape of a plan with no terms
    series = []
    for M in ms:
        at_M = PeriodicPropagator(p.beta, M)
        crosses = {cross: CounterPolynomial(constant=cross_integral_modes(at_M, cross))
                   for cross in _cross_signatures(*groups)}
        val = zero + _plan_sum(plan, values, at_M.pair_truncated(), crosses).constant
        pref = v1.prefactor_truncated(p.beta, M) * v2.prefactor_truncated(p.beta, M)
        series.append((M, val * (pref * p.beta)))
    return series


def expand(vertices: Sequence[Vertex], p: PeriodicPropagator, geom: PointGeometry
           ) -> tuple[dict[str, CounterPolynomial], dict[str, CounterPolynomial]]:
    """The order-beta expansion B = 1 - <A> + 1/2 <A^2> of a vertex list, as
    (first, second): counter polynomials keyed by the report piece each
    vertex feeds. Even vertices enter at first order, summed per piece in
    list order. An odd vertex has no first-order value; it enters through
    half its connected square, and at most one may (the square of a sum
    would need the cross terms).
    """
    odd = [v for v in vertices if len(v.slots) % 2]
    if len(odd) > 1:
        raise RouteError(f"{len(odd)} odd vertices; at most one is squared")
    first: dict[str, CounterPolynomial] = {}
    for v in vertices:
        if len(v.slots) % 2 == 0:
            poly = expect_first_order(v, p, geom)
            first[v.piece] = first[v.piece] + poly if v.piece in first else poly
    second = {v.piece: expect_second_order_connected(v, v, p, geom).scaled(0.5) for v in odd}
    return first, second


# --- route catalogs --------------------------------------------------------------

def vertex_catalog(geom: PointGeometry, beta: float, route: str) -> list[Vertex]:
    """The truncated vertex list each route needs at order beta, each vertex
    with the report piece it feeds. Even vertices enter at first order; the
    odd (cubic) one enters through its connected square, A_second_order.
    On a batched bundle the coefficients carry its leading axis of N; the
    sphere route's are the same at every point and carry none."""
    D = geom.dim
    if route == "covariant":
        # the quartic vertex carries low[m, a, n, b] = R_{a m n b}, lowered from
        # the textbook R^m_{n a b} = Riemann[a, b, n, m] (see geometry)
        r_std = np.einsum("...stkm->...mkst", geom.Riemann)
        low = np.einsum("...amnb->...manb", np.einsum("...mi,...inab->...mnab", geom.g, r_std))
        quartic = (1.0 / 6.0) * np.einsum("...manb->...abmn", low)
        return [
            Vertex("quartic-curvature", quartic, (0, 0, 1, 1), piece="A_int4"),
            Vertex("measure", (1.0 / 6.0) * geom.Ricci, (0, 0), measure_counter=True,
                   piece="A_meas"),
            Vertex("faddeev-popov", (1.0 / 3.0) * geom.Ricci, (0, 0), beta_power=-1,
                   piece="A_FP"),
        ]
    if route == "eta":
        cubic = 0.5 * geom.dg
        quartic = 0.25 * geom.ddg
        dG_trace = np.einsum("...smtm->...st", geom.dGamma)
        measure = -0.5 * 0.5 * (dG_trace + np.swapaxes(dG_trace, -1, -2))
        return [
            Vertex("cubic-kinetic", cubic, (0, 1, 1), piece="A_second_order"),
            Vertex("quartic-kinetic", quartic, (0, 0, 1, 1), piece="A_int4"),
            Vertex("measure", measure, (0, 0), measure_counter=True, piece="A_meas"),
            Vertex("faddeev-popov", 0.5 * geom.T, (0, 0), beta_power=-1, piece="A_FP"),
        ]
    if route == "sphere":
        if not (np.allclose(geom.q0, 0.0) and np.allclose(geom.g, np.eye(D))
                and np.allclose(geom.Ricci, (D - 1) * np.eye(D), atol=1e-9)):
            raise RouteError("sphere route requires the sphere builtin at the origin")
        eye = np.eye(D)
        qqdot = 0.5 * np.einsum("ab,cd->abcd", eye, eye)
        return [
            Vertex("(q.qdot)^2", qqdot, (0, 1, 0, 1), piece="A_int"),
            Vertex("jacobian", -0.5 * eye, (0, 0), measure_counter=True, piece="A_int"),
            Vertex("faddeev-popov", 0.5 * D * eye, (0, 0), beta_power=-1, piece="A_FP"),
        ]
    raise RouteError(f"unknown route {route!r}")


def check_divergence_cancellation(route: str, geom: PointGeometry,
                                  p: PeriodicPropagator) -> dict:
    """Verify that the assembled order-beta result carries no net mode count.

    For the covariant route the cancellation happens within first order; for
    the displacement route the coincidence-counter parts of the first- and
    second-order pieces cancel against each other, with the closed-form
    Christoffel-squared coefficient reproduced on both sides. On a batched
    bundle every computed field carries its batch shape, and cancels is a
    bool array over the batch.
    """
    if route not in ("covariant", "eta"):
        raise RouteError(f"route must be covariant or eta, got {route!r}")
    beta = p.beta
    pieces, half_square = expand(vertex_catalog(geom, beta, route), p, geom)
    first = sum(pieces.values(), CounterPolynomial())
    report: dict = {"route": route, "beta": beta}

    if route == "covariant":
        slope = first.divergent_weight()
        values = {M: first.value_at(M) for M in (1, 2, 5, 50)}
        stacked = np.array(list(values.values()))
        report.update({
            "slope": slope,
            "values_at_M": values,
            "value_spread": stacked.max(axis=0) - stacked.min(axis=0),
            "cancels": abs(slope) <= 1e-12 * np.maximum(1.0, abs(first.constant)),
        })
        return report

    second, = half_square.values()
    # coefficient of the coincidence delta in -<A> and +1/2 <A^2>
    d0_first = -beta * first.divergent_weight()
    d0_second = beta * second.divergent_weight()
    gi, G = geom.g_inv, geom.Gamma
    GammaL = np.einsum("...kd,...dtm->...tmk", geom.g, G)
    A = np.einsum("...st,...mn,...tmk,...ksn->...", gi, gi, GammaL, G)
    B = np.einsum("...st,...ntm,...msn->...", gi, G, G)
    closed_form = beta**2 / 24.0 * (A + B)
    residual = abs(d0_first + d0_second)
    scale = np.maximum(np.maximum(abs(d0_first), abs(d0_second)), 1.0)
    bound = 1e-10 * np.maximum(closed_form, 1.0)
    report.update({
        "delta0_first_order": d0_first,
        "delta0_second_order": d0_second,
        "closed_form_coefficient": closed_form,
        "first_matches_closed_form": abs(d0_first + closed_form) <= bound,
        "second_matches_closed_form": abs(d0_second - closed_form) <= bound,
        "residual": residual,
        "cancels": residual <= 1e-12 * scale,
    })
    return report
