"""Pointwise tensor bundle: Christoffels, curvature, and the T/V objects.

Index conventions used throughout the package (anchored so that the unit
sphere in D+1 dimensions has scalar curvature R = +D(D-1) and the geodesic
normal-coordinate expansion of the metric carries the quadratic coefficient
+1/3 against the lowered Riemann tensor):

  Gamma[m, s, t]        Christoffel of the second kind, symmetric in (s, t)
  dGamma[k, m, s, t]    partial derivative by coordinate k of Gamma[m, s, t]
  Riemann[s, t, k, m]   mixed curvature tensor; in terms of the textbook
                        R^m_{n a b} = d_a Gamma[m, b, n] - d_b Gamma[m, a, n]
                        + Gamma[m, a, r] Gamma[r, b, n] - Gamma[m, b, r] Gamma[r, a, n]
                        it is Riemann[s, t, k, m] = R^m_{k s t}; antisymmetric
                        in its first index pair
  Ricci[n, b]           R^m_{n m b}, symmetric; R = g^{nb} Ricci[n, b]
  T[s, t]               d_m Gamma[m, s, t] - 2 Gamma[m, s, k] Gamma[k, m, t]
                        + Gamma[m, k, m] Gamma[k, s, t], symmetric part
  V[m]                  g^{st} Gamma[m, s, t]; divV is its covariant divergence

The bundle holds what the routes read; V and divV come from
vector_divergence, not from the bundle. With these conventions the trace
identity g^{st} T[s, t] = divV holds identically;
divergence_identity_residual checks it by finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Sequence

import numpy as np

from .metrics import MetricSpec, eval_metric_jet

__all__ = ["PointGeometry", "GeometryError", "point_geometry", "geometry_blocks",
           "vector_divergence", "divergence_identity_residual"]

# A geometry block holds at most BLOCK_ENTRIES // D^2 points (512 at D = 2,
# 128 at D = 4), so a D x D field of a block has at most BLOCK_ENTRIES
# entries. That bounds the metric program's jets, whose slots all stay alive
# while it runs (one Hessian slot is 16 kB at any D), and the D^4 arrays of
# the assembly (16 kB * D^2); larger blocks raised the peak RSS of a
# 2048-node partition.
BLOCK_ENTRIES = 2048


def block_points(dim: int) -> int:
    """Points per block of geometry_blocks at dimension dim."""
    return max(1, BLOCK_ENTRIES // dim**2)


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class PointGeometry:
    """The tensor bundle at one point, or at N points with a leading axis of N
    on every field (sqrt_g and R are then arrays of shape (N,))."""

    q0: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    sqrt_g: float
    Gamma: np.ndarray       # [m, s, t]
    dGamma: np.ndarray      # [k, m, s, t]
    Riemann: np.ndarray     # [s, t, k, m]
    Ricci: np.ndarray
    R: float
    T: np.ndarray
    # metric derivatives kept for the noncovariant route's vertex catalog
    dg: np.ndarray          # [s, m, n]
    ddg: np.ndarray         # [s, t, m, n]

    @property
    def dim(self) -> int:
        return self.q0.shape[-1]

    def row(self, k: int) -> "PointGeometry":
        """The one-point bundle at point k of a batched bundle."""
        parts = {f.name: getattr(self, f.name)[k] for f in fields(self)}
        for name in ("sqrt_g", "R"):
            parts[name] = float(parts[name])
        return PointGeometry(**parts)


def point_geometry(spec: MetricSpec, q0: Sequence[float]) -> PointGeometry:
    """Assemble the full tensor bundle at q0 from exact metric jets.

    q0 of shape (D,) gives one point's bundle; it is computed as a batch of
    one. q0 of shape (N, D) gives the batched bundle of all N points at once;
    for large N use geometry_blocks, which bounds the memory held.
    """
    q0 = np.asarray(q0, dtype=float)
    geom = _batch_geometry(spec, spec.point_rows(q0))
    return geom if q0.ndim == 2 else geom.row(0)


def geometry_blocks(spec: MetricSpec, points: np.ndarray) -> Iterator[PointGeometry]:
    """Batched bundles of consecutive blocks of at most block_points(D) points.

    Each block's points are checked against the chart when its jets are
    evaluated, so each point is checked once.
    """
    points = spec.point_rows(points)
    size = block_points(spec.dim)
    for start in range(0, len(points), size):
        yield point_geometry(spec, points[start:start + size])


def _batch_geometry(spec: MetricSpec, q0: np.ndarray) -> PointGeometry:
    """The bundle at every row of q0, shape (N, D).

    The metric's jets arrive, and the assembly from term to T runs, with the
    point axis last and contiguous (names ending in _p), so each einsum loops
    over the points innermost rather than over index blocks of 2 to 4 entries
    one point at a time. Each field is turned once into its point-first
    array. R stays point-first: point-last, a batch of one
    collapses its trailing axis and numpy sums its reduction with another
    kernel than in a larger batch, so batch rows would no longer carry the
    bits of one-point calls.
    """
    g_p, dg_p, ddg_p = eval_metric_jet(spec, q0)  # it checks that q0 lies in the chart
    if not (np.isfinite(g_p).all() and np.isfinite(dg_p).all() and np.isfinite(ddg_p).all()):
        # error path only: name the first point with a non-finite entry
        k = next(k for k in range(len(q0))
                 if not all(np.isfinite(a[..., k]).all() for a in (g_p, dg_p, ddg_p)))
        raise GeometryError(f"metric or its derivatives not finite at {q0[k].tolist()}")
    g = np.ascontiguousarray(g_p.transpose(2, 0, 1))

    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:  # error path only: name the first point that fails alone
        for point, gk in zip(q0, g):
            try:
                np.linalg.cholesky(gk)
            except np.linalg.LinAlgError:
                raise GeometryError(f"metric not positive definite at {point.tolist()}") from None
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    singular = np.min(diag, axis=-1) ** 2 <= 1e-12 * np.max(diag, axis=-1) ** 2
    if singular.any():
        raise GeometryError(f"metric nearly singular at {q0[np.argmax(singular)].tolist()}")
    g_inv = np.linalg.inv(g)
    sqrt_g = np.prod(diag, axis=-1)

    g_inv_p = np.ascontiguousarray(g_inv.transpose(1, 2, 0))

    # Gamma^m_{st} = 1/2 g^{mn} (d_s g_nt + d_t g_ns - d_n g_st);
    # dg[s, m, n] = d_s g_mn, assembled with axes [n, s, t]
    term = np.einsum("snt...->nst...", dg_p) + np.einsum("tns...->nst...", dg_p) - dg_p
    Gamma_p = 0.5 * np.einsum("mn...,nst...->mst...", g_inv_p, term)

    # d_k Gamma^m_{st}
    dg_inv_p = -np.einsum("ma...,kab...,bn...->kmn...", g_inv_p, dg_p, g_inv_p)
    dterm = np.einsum("ksnt...->knst...", ddg_p) + np.einsum("ktns...->knst...", ddg_p) - ddg_p
    dGamma_p = (0.5 * np.einsum("kmn...,nst...->kmst...", dg_inv_p, term)
                + 0.5 * np.einsum("mn...,knst...->kmst...", g_inv_p, dterm))

    # textbook mixed Riemann R^m_{n a b}
    r_std_p = (np.einsum("ambn...->mnab...", dGamma_p) - np.einsum("bman...->mnab...", dGamma_p)
               + np.einsum("mar...,rbn...->mnab...", Gamma_p, Gamma_p)
               - np.einsum("mbr...,ran...->mnab...", Gamma_p, Gamma_p))
    Ricci_p = np.einsum("mnmb...->nb...", r_std_p)
    Ricci_p = 0.5 * (Ricci_p + Ricci_p.transpose(1, 0, 2))

    T_p = (np.einsum("mmst...->st...", dGamma_p)
           - 2.0 * np.einsum("msk...,kmt...->st...", Gamma_p, Gamma_p)
           + np.einsum("mkm...,kst...->st...", Gamma_p, Gamma_p))
    T_p = 0.5 * (T_p + T_p.transpose(1, 0, 2))

    # back to the point-first layout. r_std[..., m, n, a, b] keeps the
    # memory order [m, a, b, n] of the point-first sum it replaces, so
    # Riemann, its view, has the strides (and the einsums that read it the
    # loop order) they had
    dg = np.ascontiguousarray(dg_p.transpose(3, 0, 1, 2))
    ddg = np.ascontiguousarray(ddg_p.transpose(4, 0, 1, 2, 3))
    Gamma = np.ascontiguousarray(Gamma_p.transpose(3, 0, 1, 2))
    dGamma = np.ascontiguousarray(dGamma_p.transpose(4, 0, 1, 2, 3))
    r_std = np.ascontiguousarray(r_std_p.transpose(4, 0, 2, 3, 1)).transpose(0, 1, 4, 2, 3)
    Riemann = np.einsum("...mkst->...stkm", r_std)
    Ricci = np.ascontiguousarray(Ricci_p.transpose(2, 0, 1))
    T = np.ascontiguousarray(T_p.transpose(2, 0, 1))

    R = np.einsum("...nb,...nb->...", g_inv, Ricci)

    return PointGeometry(
        q0=q0, g=g, g_inv=g_inv, sqrt_g=sqrt_g, Gamma=Gamma, dGamma=dGamma,
        Riemann=Riemann, Ricci=Ricci, R=R, T=T, dg=dg, ddg=ddg)


def vector_divergence(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """(V, divV) of a one-point or batched bundle: V^m = g^{st} Gamma^m_st and
    its covariant divergence d_m V^m + Gamma^m_mk V^k."""
    dg_inv = -np.einsum("...ma,...kab,...bn->...kmn", geom.g_inv, geom.dg, geom.g_inv)
    V = np.einsum("...st,...mst->...m", geom.g_inv, geom.Gamma)
    dV = (np.einsum("...kst,...mst->...km", dg_inv, geom.Gamma)
          + np.einsum("...st,...kmst->...km", geom.g_inv, geom.dGamma))
    divV = np.trace(dV, axis1=-2, axis2=-1) + np.einsum("...mmk,...k->...", geom.Gamma, V)
    return V, divV


_FD_STEP = 1e-3  # the step h of the five-point differences


def _five_point_offsets(D: int) -> np.ndarray:
    """The offsets a h e_k, a in (2, 1, -1, -2), as a (4, D, D) array ordered (a, k)."""
    return np.array([2.0, 1.0, -1.0, -2.0])[:, None, None] * (_FD_STEP * np.eye(D))


def _five_point_derivative(f: np.ndarray) -> np.ndarray:
    """(-f(2h) + 8 f(h) - 8 f(-h) + f(-2h)) / 12h, f stacked over the four offsets."""
    return (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * _FD_STEP)


def divergence_identity_residual(spec: MetricSpec, q0: Sequence[float]) -> float:
    """|g^{st} T_st - (1/sqrt g) d_mu(sqrt g V^mu)| with 4th-order differences."""
    q0 = spec.check_domain(q0)
    D = spec.dim
    # the stencil points, evaluated in one batch with q0 itself in row 0
    geom = point_geometry(spec, np.vstack([q0[None], (q0 + _five_point_offsets(D)).reshape(-1, D)]))
    density = geom.sqrt_g[1:, None] * vector_divergence(geom)[0][1:]  # sqrt(g) V^mu, stencil
    div = float(np.sum(_five_point_derivative(np.einsum("akk->ak", density.reshape(4, D, D)))))
    div /= geom.sqrt_g[0]
    trT = float(np.einsum("st,st->", geom.g_inv[0], geom.T[0]))
    return abs(trT - div)
