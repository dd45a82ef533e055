"""Chart definitions: metric files, the builtin catalog, jet evaluation.

A MetricSpec is immutable after construction (its params are a read-only
view) and all evaluation is pure, so one spec can be shared by every caller.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import expressions as ex
from .jets import Jet2

__all__ = [
    "MetricSpec", "MetricError", "DomainError", "parse_metric", "finite_parameter", "builtin",
    "eval_metric_jet", "BUILTIN_NAMES",
    "embedding_to_stereographic", "stereographic_to_embedding",
]

BUILTIN_NAMES = ("flat", "sphere", "sphere-stereographic", "hyperbolic-ball", "conformal2d")


class MetricError(ValueError):
    pass


class DomainError(MetricError):
    """Evaluation point outside the chart's domain."""


@dataclass(frozen=True)
class MetricSpec:
    """A chart: dimension, coordinate names, and symmetric component expressions.

    Every parameter is converted to a float on construction, and a
    non-finite one is a MetricError that names it. The components are
    compiled once, row by row, into one program (every evaluation runs it).
    domain "unit-ball" admits only points with |q| < 1; default_grid names
    the partition grid used when none is asked for."""

    name: str
    dim: int
    coords: tuple[str, ...]
    components: tuple[tuple[ex.Expression, ...], ...]  # D x D, symmetric
    params: Mapping[str, float] = field(default_factory=dict)
    domain: str | None = None
    default_grid: str | None = None
    program: ex.Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params = {name: finite_parameter(name, value) for name, value in self.params.items()}
        object.__setattr__(self, "params", MappingProxyType(params))
        if self.dim < 1:
            raise MetricError(f"dimension must be positive, got {self.dim}")
        if len(self.coords) != self.dim:
            raise MetricError(f"expected {self.dim} coordinate names, got {len(self.coords)}")
        if len(self.components) != self.dim or any(len(r) != self.dim for r in self.components):
            raise MetricError("component array must be D x D")
        if self.domain not in (None, "unit-ball"):
            raise MetricError(f"unknown domain {self.domain!r}")
        D = self.dim
        program = ex.compile_program([c for row in self.components for c in row])
        object.__setattr__(self, "program", program)
        for i in range(D):
            for j in range(D):
                if program.roots[i * D + j] != program.roots[j * D + i]:
                    raise MetricError(f"component array not symmetric at ({i}, {j})")
        allowed = set(self.coords) | set(self.params)
        unknown = [(owner, name) for (op, name, _), owner in zip(program.code, program.owners)
                   if op == "var" and name not in allowed]
        if unknown:  # the first component that has one, with all of its own
            first = unknown[0][0]
            names = sorted(name for owner, name in unknown if owner == first)
            i, j = divmod(first, D)
            raise MetricError(f"unknown identifier(s) {names} in component ({i}, {j})")

    def __hash__(self) -> int:
        # the fields == compares, with params as sorted items (a mapping is
        # unhashable); the program follows from the components
        return hash((self.name, self.dim, self.coords, self.components,
                     tuple(sorted(self.params.items())), self.domain, self.default_grid))

    def check_domain(self, q: Sequence[float]) -> np.ndarray:
        """q as a float array of shape (D,) or (N, D), every point inside the chart
        (a conservative test for the builtin families)."""
        q = np.asarray(q, dtype=float)
        if q.ndim not in (1, 2) or q.shape[-1] != self.dim:
            raise MetricError(f"point has wrong dimension {q.shape}, expected ({self.dim},)")
        if self.domain == "unit-ball":
            points = q.reshape(-1, self.dim)
            outside = ~(np.sum(points * points, axis=-1) < 1.0)
            if outside.any():
                raise DomainError(f"point {points[np.argmax(outside)].tolist()} "
                                  f"outside domain of chart {self.name!r}")
        return q


def _mirror_and_check(entries: list[list], dim: int) -> list[list[str]]:
    """Fill omitted lower-triangle entries; reject asymmetric explicit ones."""
    grid: list[list] = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            grid[i][j] = entries[i][j]
    for i in range(dim):
        for j in range(i + 1, dim):
            upper, lower = grid[i][j], grid[j][i]
            if upper is None and lower is None:
                raise MetricError(f"missing component ({i + 1}, {j + 1})")
            if upper is None:
                grid[i][j] = lower
            elif lower is None:
                grid[j][i] = upper
    return grid


def finite_parameter(name: str, value) -> float:
    """A metric parameter as a float, or a MetricError naming it if not finite."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise MetricError(f"parameter {name!r} must be a finite number, got {value!r}")
    return number


def parse_metric(source: str) -> MetricSpec:
    """Parse a UTF-8 JSON metric file into a validated MetricSpec."""
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise MetricError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MetricError("metric file must be a JSON object")
    for key in ("dim", "coords", "g"):
        if key not in doc:
            raise MetricError(f"metric file missing field {key!r}")
    name = str(doc.get("name", "user-metric"))
    if name in BUILTIN_NAMES:
        # outputs report the chart by name, so a file's chart may not pass for a builtin
        raise MetricError(f"metric name {name!r} is reserved for a builtin chart")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise MetricError(f"'dim' must be a positive integer, got {dim!r}")
    coords = doc["coords"]
    if not isinstance(coords, list) or len(coords) != dim:
        raise MetricError(f"'coords' must list {dim} names")
    params = doc.get("params", {}) or {}
    if not isinstance(params, dict):
        raise MetricError("'params' must be an object of numbers")
    g = doc["g"]
    if not isinstance(g, list) or len(g) != dim or any(
            not isinstance(row, list) or len(row) != dim for row in g):
        raise MetricError(f"'g' must be a {dim} x {dim} array (null entries mirrored)")
    grid = _mirror_and_check(g, dim)

    parsed: list[list[ex.Expression]] = [[None] * dim for _ in range(dim)]  # type: ignore
    for i in range(dim):
        for j in range(dim):
            entry = grid[i][j]
            if not isinstance(entry, str):
                raise MetricError(f"component ({i + 1}, {j + 1}) must be an expression string")
            try:
                parsed[i][j] = ex.parse(entry)
            except ex.ParseError as exc:
                raise MetricError(f"component ({i + 1}, {j + 1}): {exc}") from None
    for i in range(dim):
        for j in range(i + 1, dim):
            if isinstance(grid[i][j], str) and isinstance(grid[j][i], str) \
                    and parsed[i][j] != parsed[j][i]:
                raise MetricError(
                    f"components ({i + 1},{j + 1}) and ({j + 1},{i + 1}) differ explicitly")
    return MetricSpec(
        name=name, dim=dim, coords=tuple(str(c) for c in coords),
        components=tuple(tuple(row) for row in parsed), params=params)


# --- builtin catalog ----------------------------------------------------------

def _coords(D: int) -> tuple[str, ...]:
    return tuple(f"q{i + 1}" for i in range(D))


def _qq(D: int) -> str:
    return " + ".join(f"q{i + 1}*q{i + 1}" for i in range(D))


def builtin(name: str, D: int, params: Mapping[str, float] | None = None) -> MetricSpec:
    """Closed-form catalog metric.

    sphere: unit sphere in D+1 dimensions in the embedding chart,
    g_ij = delta_ij + q_i q_j / (1 - q^2), valid on |q| < 1 (one hemisphere).
    sphere-stereographic is the same manifold in the stereographic chart,
    g_ij = 4 delta_ij / (1 + q^2)^2. hyperbolic-ball is the Poincare ball,
    g_ij = 4 delta_ij / (1 - q^2)^2. conformal2d is exp(2 sigma(q)) delta_ij
    with sigma = a q1 + b q2 + c q1 q2 + e (q1^2 + q2^2).

    Specs are immutable, so each (name, D, params) is parsed and validated
    once per process and the same spec is returned on every later call.
    """
    return _builtin_spec(name, D, tuple(sorted((params or {}).items())))


@functools.lru_cache(maxsize=64)
def _builtin_spec(name: str, D: int, params: tuple[tuple[str, float], ...]) -> MetricSpec:
    if D < 1:
        raise MetricError(f"dimension must be positive, got {D}")
    components = _builtin_components(name, D)
    defaults = {"a": 0.3, "b": -0.2, "c": 0.15, "e": 0.1} if name == "conformal2d" else {}
    return MetricSpec(name=name, dim=D, coords=_coords(D), components=components,
                      params={**defaults, **dict(params)},
                      domain="unit-ball" if name in ("sphere", "hyperbolic-ball") else None,
                      default_grid="sphere-polar" if (name, D) == ("sphere", 2) else None)


def _builtin_components(name: str, D: int) -> tuple[tuple[ex.Expression, ...], ...]:
    """Parsed components of a builtin chart."""
    if name == "flat":
        comps = [[("1" if i == j else "0") for j in range(D)] for i in range(D)]
    elif name == "sphere":
        qq = _qq(D)
        comps = [[f"q{min(i, j) + 1}*q{max(i, j) + 1} / (1 - ({qq}))" for j in range(D)]
                 for i in range(D)]
        for i in range(D):
            comps[i][i] = f"1 + {comps[i][i]}"
    elif name == "sphere-stereographic":
        qq = _qq(D)
        comps = [[("0" if i != j else f"4 / (1 + ({qq}))^2") for j in range(D)] for i in range(D)]
    elif name == "hyperbolic-ball":
        qq = _qq(D)
        comps = [[("0" if i != j else f"4 / (1 - ({qq}))^2") for j in range(D)] for i in range(D)]
    elif name == "conformal2d":
        if D != 2:
            raise MetricError("conformal2d requires D = 2")
        sigma = "a*q1 + b*q2 + c*q1*q2 + e*(q1^2 + q2^2)"
        comps = [[("0" if i != j else f"exp(2*({sigma}))") for j in range(D)] for i in range(D)]
    else:
        raise MetricError(f"unknown builtin metric {name!r}; choose from {BUILTIN_NAMES}")
    return tuple(tuple(ex.parse(e) for e in row) for row in comps)


# --- evaluation ---------------------------------------------------------------

def eval_metric_jet(spec: MetricSpec, q: Sequence[float]) -> list[list[Jet2]]:
    """g_{mu nu}(q) with exact first and second partials.

    q has shape (D,) or (N, D); every jet carries the leading axes of q, so
    the program runs once for all points.
    """
    qv = spec.check_domain(q)
    D = spec.dim
    env = {name: Jet2.coordinate(qv[..., i], i, D) for i, name in enumerate(spec.coords)}
    try:
        # an overflow surfaces as a non-finite value, which geometry rejects with its point
        with np.errstate(over="ignore", invalid="ignore"):
            values = spec.program.run({**env, **spec.params})
    except ex.EvalError as exc:
        if qv.ndim == 2:
            for point in qv:  # error path only: name the offending point
                eval_metric_jet(spec, point)
        i, j = divmod(exc.root, D)
        raise MetricError(f"evaluating g({i + 1},{j + 1}) at {qv.tolist()}: {exc}") from None
    out: list[list[Jet2]] = [[None] * D for _ in range(D)]  # type: ignore
    for i in range(D):
        for j in range(i, D):
            jet = values[i * D + j]
            if not isinstance(jet, Jet2):
                jet = Jet2.constant(np.full(qv.shape[:-1], jet), D)
            out[i][j] = out[j][i] = jet
    return out


# --- chart correspondence for the unit sphere ---------------------------------

def embedding_to_stereographic(q: np.ndarray) -> np.ndarray:
    """Map an embedding-chart point (upper hemisphere) to the stereographic chart."""
    q = np.asarray(q, dtype=float)
    z = np.sqrt(1.0 - float(q @ q))
    return q / (1.0 + z)


def stereographic_to_embedding(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return 2.0 * u / (1.0 + float(u @ u))
