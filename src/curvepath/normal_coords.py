"""Geodesic (normal) coordinate maps, truncated at the two-loop order.

The forward map sends a tangent vector xi at the base point q0 to the
chart displacement eta reached by following the geodesic for unit time:

    eta^m = xi^m - (1/2) Gamma^m_{st} xi^s xi^t
                 - (1/6) (d_k Gamma^m_{st} - 2 Gamma^m_{nt} Gamma^n_{ks}) xi^k xi^s xi^t

(Taylor series of the geodesic flow; the cubic block is a bookkeeping
object, not a tensor. Only the fully symmetric part of each coefficient
block survives the contraction, stored here cyclically symmetrized over the
lower indices.) The inverse map carries the opposite signs with the shifted
coefficients

    tilde(k s t -> m) = d_k Gamma^m_{st} + Gamma^n_{ks} Gamma^m_{nt}.

Maps are cubic, trace-logs quadratic: exactly the orders the two-loop
expansion consumes. The series helpers take leading batch axes, so each
finite-difference stencil is evaluated in one call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointGeometry, _five_point_derivative, _five_point_offsets, point_geometry
from .metrics import MetricSpec

__all__ = [
    "NormalExpansion", "normal_expansion", "eta_of_xi", "xi_of_eta",
    "deta_dxi", "connection_Q", "jacobian_trlog", "measure_trlog",
    "normal_curvature_check", "qbar_matrix", "deta_dq0_fd",
]


def _cyclic_sym3(t: np.ndarray) -> np.ndarray:
    """Average over cyclic permutations of the first three of the last four indices."""
    return (t + np.moveaxis(t, -4, -2) + np.moveaxis(t, -2, -4)) / 3.0


@dataclass(frozen=True)
class NormalExpansion:
    geom: PointGeometry
    spec: MetricSpec
    eta_quad: np.ndarray   # [s, t, m]: -1/2 Gamma^m_{st}, entering eta = xi + eta_quad xi xi + ...
    eta_cub: np.ndarray    # [s, t, k, m]
    xi_quad: np.ndarray    # [s, t, m]
    xi_cub: np.ndarray     # [s, t, k, m]

    @property
    def dim(self) -> int:
        return self.geom.dim


def normal_expansion(spec: MetricSpec, q0) -> NormalExpansion:
    return _expansion(spec, point_geometry(spec, q0))


def _expansion(spec: MetricSpec, geom: PointGeometry) -> NormalExpansion:
    """The series coefficients at every point of the bundle geom, with its
    leading batch axes."""
    G = geom.Gamma                      # [m, s, t]
    gamma_st_m = np.einsum("...mst->...stm", G)
    dG = np.einsum("...kmst->...stkm", geom.dGamma)
    GG = np.einsum("...nks,...mnt->...stkm", G, G)
    eta_quad = -0.5 * gamma_st_m
    # cubic block [s, t, k, m]: dGamma[k, m, s, t] - 2 Gamma[n, k, s] Gamma[m, n, t]
    eta_cub = -(1.0 / 6.0) * _cyclic_sym3(dG - 2.0 * GG)
    # inverted-series coefficients: tilde Gamma_{st k}^m = d_k Gamma^m_{st} + Gamma^n_{ks} Gamma^m_{nt}
    tilde = dG + GG
    xi_quad = 0.5 * gamma_st_m
    xi_cub = (1.0 / 6.0) * _cyclic_sym3(tilde)
    return NormalExpansion(geom=geom, spec=spec, eta_quad=eta_quad, eta_cub=eta_cub,
                           xi_quad=xi_quad, xi_cub=xi_cub)


def _apply_series(quad: np.ndarray, cub: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + np.einsum("...stm,...s,...t->...m", quad, v, v)
            + np.einsum("...stkm,...s,...t,...k->...m", cub, v, v, v))


def eta_of_xi(exp: NormalExpansion, xi) -> np.ndarray:
    return _apply_series(exp.eta_quad, exp.eta_cub, np.asarray(xi, dtype=float))


def xi_of_eta(exp: NormalExpansion, eta) -> np.ndarray:
    return _apply_series(exp.xi_quad, exp.xi_cub, np.asarray(eta, dtype=float))


def deta_dxi(exp: NormalExpansion, xi) -> np.ndarray:
    """J^m_n = d eta^m / d xi^n of the truncated map (exact derivative)."""
    xi = np.asarray(xi, dtype=float)
    quad, cub = exp.eta_quad, exp.eta_cub
    J = np.eye(xi.shape[-1]) + 2.0 * np.einsum("...ntm,...t->...mn", quad, xi)
    J += np.einsum("...ntkm,...t,...k->...mn", cub, xi, xi)
    J += np.einsum("...tnkm,...t,...k->...mn", cub, xi, xi)
    J += np.einsum("...tknm,...t,...k->...mn", cub, xi, xi)
    return J


def connection_Q(exp: NormalExpansion, xi) -> np.ndarray:
    """Nonlinear connection: identity + Gamma^m_{ns} xi^s + 1/3 Riemann[s,n,t,m] xi^s xi^t."""
    xi = np.asarray(xi, dtype=float)
    geom = exp.geom
    Q = np.eye(exp.dim)
    Q += np.einsum("mns,s->mn", geom.Gamma, xi)
    Q += (1.0 / 3.0) * np.einsum("sntm,s,t->mn", geom.Riemann, xi, xi)
    return Q


def jacobian_trlog(exp: NormalExpansion, xi) -> float:
    """Quadratic truncation of tr log(d eta / d xi):

    -Gamma^m_{ms} xi^s + 1/3 (1/2 Gamma^m_{nt} Gamma^n_{ms}
        + Gamma^n_{ts} Gamma^m_{nm} - d_s Gamma^m_{mt}
        - 1/2 d_m Gamma^m_{st}) xi^s xi^t
    """
    xi = np.asarray(xi, dtype=float)
    G, dG = exp.geom.Gamma, exp.geom.dGamma
    lin = -np.einsum("mms,s->", G, xi)
    quad = (0.5 * np.einsum("mnt,nms->st", G, G)
            + np.einsum("nts,mnm->st", G, G)
            - np.einsum("smmt->st", dG)
            - 0.5 * np.einsum("mmst->st", dG))
    return float(lin + (1.0 / 3.0) * np.einsum("st,s,t->", quad, xi, xi))


def measure_trlog(exp: NormalExpansion, xi) -> float:
    """Quadratic truncation of (1/2) log g(q0 + eta(q0, xi)) / g(q0):

    Gamma^m_{ms} xi^s + 1/2 (d_s Gamma^m_{tm} - Gamma^m_{nm} Gamma^n_{st}) xi^s xi^t
    """
    xi = np.asarray(xi, dtype=float)
    G, dG = exp.geom.Gamma, exp.geom.dGamma
    lin = np.einsum("mms,s->", G, xi)
    quad = np.einsum("smtm->st", dG) - np.einsum("mnm,nst->st", G, G)
    return float(lin + 0.5 * np.einsum("st,s,t->", quad, xi, xi))


def deta_dq0_fd(spec: MetricSpec, q0, xi) -> np.ndarray:
    """d eta^m / d q0^n by central differences of step 1e-5 max(1, |q0|_max).

    The bundles and series at the 2 D base points q0 +- h e_n are evaluated
    as one batch.
    """
    q0 = np.asarray(q0, dtype=float)
    xi = np.asarray(xi, dtype=float)
    D = q0.shape[0]
    h = 1e-5 * max(1.0, float(np.max(np.abs(q0))))
    # rows ordered (n, sign): q0 + h e_0, q0 - h e_0, q0 + h e_1, ...
    steps = (np.eye(D)[:, None, :] * np.array([h, -h])[:, None]).reshape(-1, D)
    eta = eta_of_xi(_expansion(spec, point_geometry(spec, q0 + steps)), xi).reshape(D, 2, D)
    return ((eta[:, 0] - eta[:, 1]) / (2 * h)).T


def qbar_matrix(exp: NormalExpansion, eta) -> np.ndarray:
    """Compensation matrix at fixed eta; the identity up to cubic terms.

    Assembles Q^k_n (d eta^m / d xi^k) - d eta^m / d q0^n at xi = xi(q0, eta),
    the combination that must reduce to the unit matrix for the expansion
    point shift to be compensated by the fluctuation translation.
    """
    eta = np.asarray(eta, dtype=float)
    xi = xi_of_eta(exp, eta)
    Q = connection_Q(exp, xi)
    J = deta_dxi(exp, xi)
    dq0 = deta_dq0_fd(exp.spec, exp.geom.q0, xi)
    return np.einsum("mk,kn->mn", J, Q) - dq0


def _chart_gamma(exp: NormalExpansion, xi: np.ndarray, geom_q: PointGeometry) -> np.ndarray:
    """Christoffels GammaHat^m_{st} of the normal chart at xi, from the bundle
    geom_q at q0 + eta(xi); xi and geom_q may carry the same leading batch axes.

    The pullback metric at xi is ghat(xi) = g(q0 + eta) J^T . J with
    J = d eta / d xi, and its first derivatives are propagated analytically.
    """
    J = deta_dxi(exp, xi)
    # second derivative of the truncated map wrt xi: dJ[a, m, n] = d_a J^m_n
    dJ = 2.0 * np.einsum("...anm->...amn", exp.eta_quad) + _dJ_cubic(exp.eta_cub, xi)
    ghat = np.einsum("...uv,...um,...vn->...mn", geom_q.g, J, J)
    # d_a ghat_mn = d_l g_uv J^l_a J^u_m J^v_n + g_uv (dJ^u_am J^v_n + J^u_m dJ^v_an)
    dghat = (np.einsum("...luv,...la,...um,...vn->...amn", geom_q.dg, J, J, J)
             + np.einsum("...uv,...aum,...vn->...amn", geom_q.g, dJ, J)
             + np.einsum("...uv,...um,...avn->...amn", geom_q.g, J, dJ))
    ghat_inv = np.linalg.inv(ghat)
    term = np.einsum("...snt->...nst", dghat) + np.einsum("...tns->...nst", dghat) - dghat
    return 0.5 * np.einsum("...mn,...nst->...mst", ghat_inv, term)


def _normal_chart_dgamma(exp: NormalExpansion) -> np.ndarray:
    """d_k GammaHat^m_{ts}(0) of the normal chart constructed by exp, by differences.

    The chart is the composition q = q0 + eta(q0, xi); only the outer
    derivative d_k is numerical. The bundles at the 4 D stencil points come
    from one batched point_geometry call.
    """
    D = exp.dim
    xis = _five_point_offsets(D).reshape(-1, D)
    geom = point_geometry(exp.spec, exp.geom.q0 + eta_of_xi(exp, xis))
    gammas = _chart_gamma(exp, xis, geom).reshape(4, D, D, D, D)
    return _five_point_derivative(gammas)  # [k, m, t, s]


def _dJ_cubic(c3: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """d_a of the cubic block's contribution to d eta^m / d xi^n."""
    s1 = np.einsum("...ankm,...k->...anm", c3, xi) + np.einsum("...aknm,...k->...anm", c3, xi)
    s2 = np.einsum("...nakm,...k->...anm", c3, xi) + np.einsum("...knam,...k->...anm", c3, xi)
    s3 = np.einsum("...nkam,...k->...anm", c3, xi) + np.einsum("...kanm,...k->...anm", c3, xi)
    return np.einsum("...anm->...amn", s1 + s2 + s3)


def normal_curvature_check(spec: MetricSpec, q0) -> float:
    """Residual of the normal-coordinate derivative identity at the origin.

    In a chart geodesic at q0 the Christoffel derivatives reduce to pure
    curvature: d_k Gamma^m_{ts} = -(1/3)(Riemann[t,k,s,m] + Riemann[s,k,t,m]).
    Returns the max-norm residual of that relation in the chart constructed
    from the truncated geodesic map (finite-difference outer derivative).
    """
    exp = normal_expansion(spec, q0)
    dgh = _normal_chart_dgamma(exp)         # [k, m, t, s]
    Rp = exp.geom.Riemann                   # [s, t, k, m]
    expected = -(1.0 / 3.0) * (np.einsum("tksm->kmts", Rp) + np.einsum("sktm->kmts", Rp))
    return float(np.max(np.abs(dgh - expected)))
