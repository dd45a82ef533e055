"""curvepath: two-loop effective classical potential in curved space.

The high-temperature Boltzmann factor B(q0) = 1 - R(q0) beta / 24 + ... of
a quantum particle on a Riemannian manifold, computed three independent
ways (geodesic-coordinate expansion, plain-displacement expansion with its
Faddeev-Popov correction, and the homogeneous-sphere expansion), with the
mode-counting regularization made explicit and checkable.
"""
from .metrics import MetricSpec, builtin, parse_metric, eval_metric_jet
from .geometry import (PointGeometry, point_geometry, vector_divergence,
                       divergence_identity_residual)
from .normal_coords import (NormalExpansion, normal_expansion, eta_of_xi, xi_of_eta,
                            connection_Q, jacobian_trlog, measure_trlog,
                            normal_curvature_check)
from .propagator import CounterPolynomial, PeriodicPropagator
from .wick import (Vertex, vertex_catalog, expect_first_order, expect_second_order_connected,
                   expand, check_divergence_cancellation)
from .ecp import (ExpansionReport, boltzmann, sphere_geometry, seeley_density, partition_function,
                  QuadratureGrid, sphere_area, sphere_route_partition)
from .montecarlo import McEstimate, mc_vertex_expectation, mc_boltzmann, mc_two_point

__version__ = "0.1.0"

__all__ = [
    "MetricSpec", "builtin", "parse_metric", "eval_metric_jet",
    "PointGeometry", "point_geometry", "vector_divergence", "divergence_identity_residual",
    "NormalExpansion", "normal_expansion", "eta_of_xi", "xi_of_eta",
    "connection_Q", "jacobian_trlog", "measure_trlog", "normal_curvature_check",
    "CounterPolynomial", "PeriodicPropagator",
    "Vertex", "vertex_catalog", "expect_first_order", "expect_second_order_connected",
    "expand", "check_divergence_cancellation",
    "ExpansionReport", "boltzmann", "sphere_geometry", "seeley_density",
    "partition_function", "QuadratureGrid", "sphere_area", "sphere_route_partition",
    "McEstimate", "mc_vertex_expectation", "mc_boltzmann", "mc_two_point",
    "__version__",
]
