"""Effective classical Boltzmann factor B(q0) by three independent routes.

All routes compute B = 1 - c1 * beta + O(beta^2) with the order-beta
coefficient assembled from exact counter polynomials, so the reported
B_coefficient is cutoff independent whenever the mode counters cancel
(they do, for every route; the cancellation itself is checked by
wick.check_divergence_cancellation and by the acceptance suite).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import PointGeometry, geometry_blocks, point_geometry
from .metrics import MetricSpec, builtin
from .propagator import CounterPolynomial, PeriodicPropagator, _all, _check_beta
from .wick import expand, richardson_limit, second_order_mode_series, vertex_catalog

__all__ = [
    "ExpansionReport", "boltzmann", "sphere_geometry", "seeley_density",
    "QuadratureGrid", "partition_function", "sphere_area", "sphere_route_partition",
]


@dataclass
class ExpansionReport:
    """B on one route at the points of a bundle. q0 has shape (*batch, D),
    and R, the pieces' coefficients and the B fields have the batch shape:
    () for one point, (N,) for N points. pieces holds the counter polynomial
    of each piece, as wick.expand returns it; sharp_modes maps a squared
    piece to its sharp-cutoff diagnostic, ((M, value) series, Richardson
    limit, limit error)."""

    route: str
    q0: np.ndarray | list[float]
    beta: float
    M: int
    R: float
    pieces: dict[str, CounterPolynomial]
    B_coefficient: float
    B_value: float
    veff: float
    covariant_expected: float
    discrepancy: float
    noncovariant_defect: float
    include_fp: bool
    sharp_modes: dict[str, tuple[list[tuple[int, float]], float, float]]

    def row(self, k) -> "ExpansionReport":
        """The one-point report, with float fields and q0 a list, at index k
        of the batch (k = () for a one-point report)."""
        def at(x) -> float:
            return float(np.asarray(x)[k])
        return ExpansionReport(
            route=self.route, q0=np.asarray(self.q0)[k].tolist(), beta=self.beta, M=self.M,
            R=at(self.R), pieces={name: poly.row(k) for name, poly in self.pieces.items()},
            B_coefficient=at(self.B_coefficient), B_value=at(self.B_value), veff=at(self.veff),
            covariant_expected=at(self.covariant_expected), discrepancy=at(self.discrepancy),
            noncovariant_defect=at(self.noncovariant_defect), include_fp=self.include_fp,
            sharp_modes={name: ([(m, at(v)) for m, v in series], at(limit), at(error))
                         for name, (series, limit, error) in self.sharp_modes.items()})

    def as_dict(self) -> dict:
        """The fields in order, in the expansion-report-v1 layout: each piece
        as its counter polynomial, its value at M and its limit (None unless
        the counters cancel), each sharp-cutoff diagnostic right after its
        piece."""
        pieces = {}
        for name, poly in self.pieces.items():
            pieces[name] = {"counter_poly": poly.as_dict(),
                            "numeric_M_series": [(self.M, poly.value_at(self.M))],
                            "limit": poly.finite_value() if _all(poly.is_finite) else None,
                            "limit_error": 0.0}
            if name in self.sharp_modes:
                series, limit, error = self.sharp_modes[name]
                pieces[name + "_sharp_modes"] = {"counter_poly": None, "numeric_M_series": series,
                                                 "limit": limit, "limit_error": error}
        fields = dict(vars(self), q0=list(self.q0), pieces=pieces)
        return {name: value for name, value in fields.items() if name != "sharp_modes"}


def _require(ok, geom: PointGeometry, message) -> None:
    """Raise ValueError(message(k) + the point) at the first point k, in input
    order, where ok is false."""
    if not _all(ok):
        k = np.unravel_index(np.argmin(ok), np.shape(ok))
        raise ValueError(f"{message(k)} at {geom.q0[k].tolist()}")


def boltzmann(route: str, geom: PointGeometry, beta: float, M: int, include_fp: bool = True,
              with_mode_series: bool = False) -> ExpansionReport:
    """B on one route at every point of geom, assembled from its vertex catalog.

    A batched bundle of N points gives the batched report of all N from one
    pass of the Wick engine; a one-point bundle, a batch of shape (), gives
    its one-point report. A failure (divergent counters, or B <= 0) names
    the first offending point. The pieces are those of wick.expand: the
    even vertices' first-order sums, then the odd vertex's half square, with
    with_mode_series attaching the sharp-cutoff diagnostic of that square.
    include_fp=False drops the Faddeev-Popov piece: on the eta route the
    coefficient then falls short of R/24 by the noncovariant trace
    g^{st} T_st / 24.
    """
    p = PeriodicPropagator(beta, M)
    vertices = [v for v in vertex_catalog(geom, beta, route) if include_fp or v.piece != "A_FP"]
    first, second = expand(vertices, p, geom)
    total = functools.reduce(operator.sub, second.values(),
                             functools.reduce(operator.add, first.values()))
    ms = [m for m in (16, 32, 64, 128, 256, 512, 1024) if m <= max(M, 16)]
    sharp_modes = {}
    for v in [v for v in vertices if with_mode_series and v.piece in second]:
        series = second_order_mode_series(v, v, p, geom, ms)
        limit, limit_error = richardson_limit(series)
        sharp_modes[v.piece] = ([(m, 0.5 * x) for m, x in series], 0.5 * limit, 0.5 * limit_error)
    _require(total.is_finite, geom, lambda k: f"counter polynomial is divergent: {total.row(k)}")
    coeff = (total.constant + total.coeff_nall) / beta   # total.finite_value(), checked above
    B_value = 1.0 - coeff * beta
    _require(B_value > 0, geom,
             lambda k: f"B = 1 - c1 beta = {float(np.asarray(B_value)[k])!r} <= 0: "
                       f"beta = {beta!r} is outside the range of the order-beta expansion")
    # math.log per point: NumPy's vectorised log differs from libm in the last bit
    veff = np.reshape([-math.log(b) / beta for b in np.ravel(B_value).tolist()],
                      np.shape(B_value))
    expected = geom.R / 24.0
    report = ExpansionReport(
        route=route, q0=geom.q0, beta=beta, M=M, R=geom.R, pieces=first | second,
        B_coefficient=coeff, B_value=B_value, veff=veff, covariant_expected=expected,
        discrepancy=abs(coeff - expected), noncovariant_defect=expected - coeff,
        include_fp=include_fp, sharp_modes=sharp_modes)
    return report if geom.q0.ndim == 2 else report.row(())


@functools.lru_cache(maxsize=16)
def sphere_geometry(D: int) -> PointGeometry:
    """The unit D-sphere at the origin of its embedding chart, where the
    sphere route runs; read-only and built once per D."""
    if D < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {D}")
    geom = point_geometry(builtin("sphere", D), np.zeros(D))
    for array in vars(geom).values():
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return geom


def _free_density(beta: float, D: int) -> float:
    """(2 pi beta)^(-D/2), the free density at coincidence; a ValueError for a
    beta that is not finite and > 0, or where it leaves the float64 range."""
    _check_beta(beta)
    try:
        return (2.0 * math.pi * beta) ** (-D / 2.0)
    except OverflowError:
        raise ValueError(f"(2 pi beta)^(-D/2) overflows float64 at beta = {beta!r}, "
                         f"D = {D}") from None


def seeley_density(geom: PointGeometry, beta: float,
                   convention: str = "path_integral") -> float:
    """Short-time partition function density in either convention.

    path_integral: (2 pi beta)^(-D/2) (1 - R beta / 24); dewitt_seeley:
    (2 pi beta)^(-D/2) (1 + R beta / 12). The two brackets differ at this
    order by R beta / 8, the flat-measure correction factor.
    """
    pref = _free_density(beta, geom.dim)
    if convention == "path_integral":
        return pref * (1.0 - geom.R * beta / 24.0)
    if convention == "dewitt_seeley":
        return pref * (1.0 + geom.R * beta / 12.0)
    raise ValueError(f"unknown convention {convention!r}")


# --- configuration-space quadrature -----------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature description for the q0 integral.

    kind "box": Gauss-Legendre on the product of [lo, hi] intervals.
    kind "polar" (D = 2): Gauss-Legendre radius on [0, rmax], uniform angle.
    kind "sphere-polar" (D = 2): hemisphere chart of the unit sphere with
    the radial coordinate substituted to absorb the 1/sqrt(1-r^2) density.
    Keep n moderate (<= 32) for sphere-polar: the rule converges spectrally,
    and higher orders only push nodes into the chart edge where the metric
    components lose floating-point accuracy.
    """
    kind: str = "box"
    bounds: tuple[tuple[float, float], ...] = ()
    rmax: float = 0.0
    n: int = 32


def sphere_area(D: int) -> float:
    """Surface area of the unit sphere embedded in D+1 dimensions."""
    return 2.0 * math.pi ** ((D + 1) / 2.0) / math.gamma((D + 1) / 2.0)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], read-only and built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def partition_function(spec: MetricSpec, beta: float, grid: QuadratureGrid) -> float:
    """Quadrature of sqrt(g) B(q0) / (2 pi beta)^(D/2) over the chart."""
    D = spec.dim
    pref = _free_density(beta, D)
    x, w = _gauss_legendre(grid.n)

    if grid.kind == "box":
        if len(grid.bounds) != D:
            raise ValueError(f"box grid needs {D} bounds")
        axes = [0.5 * (hi - lo) * (x + 1.0) + lo for lo, hi in grid.bounds]
        weights = [0.5 * (hi - lo) * w for lo, hi in grid.bounds]
        # tensor-product nodes in C order, weights multiplied axis by axis
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, D)
        wt = functools.reduce(np.multiply.outer, weights).reshape(-1)
    elif grid.kind in ("polar", "sphere-polar"):
        if D != 2:
            raise ValueError("polar grids are for two-dimensional charts")
        ntheta = 2 * grid.n
        thetas = 2.0 * math.pi * np.arange(ntheta) / ntheta
        wtheta = 2.0 * math.pi / ntheta
        if grid.kind == "polar":
            r_nodes = 0.5 * grid.rmax * (x + 1.0)
            r_weights = 0.5 * grid.rmax * w * wtheta * r_nodes
        else:
            # r = sin(psi): r dr / sqrt(1 - r^2) = sin(psi) dpsi on the sphere chart
            r_nodes = np.sin(0.25 * math.pi * (x + 1.0))
            r_weights = 0.25 * math.pi * w * wtheta * r_nodes
        nodes = np.stack([np.multiply.outer(r_nodes, np.cos(thetas)),
                          np.multiply.outer(r_nodes, np.sin(thetas))], axis=-1).reshape(-1, D)
        wt = np.repeat(r_weights, ntheta)
    else:
        raise ValueError(f"unknown grid kind {grid.kind!r}")

    fields = [(geom.sqrt_g, geom.R) for geom in geometry_blocks(spec, nodes)]  # bounded memory
    sqrt_g, R = (np.concatenate(field) for field in zip(*fields))
    b = 1.0 - R * beta / 24.0
    # the sphere-polar substitution absorbs sqrt(g) into the radial weight
    return pref * float(np.sum(wt * b if grid.kind == "sphere-polar" else wt * sqrt_g * b))


def sphere_route_partition(D: int, beta: float, M: int) -> float:
    """Full-sphere partition function: area times the homogeneous B."""
    report = boltzmann("sphere", sphere_geometry(D), beta, M)
    return sphere_area(D) * report.B_value * _free_density(beta, D)
