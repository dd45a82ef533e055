"""Truncated Taylor arithmetic to second order (dense jets).

A Jet2 carries a value together with its gradient and Hessian with respect
to D base coordinates. Each part may carry the same batch axes, last, so one
jet holds one point (value shape ()) or N points (value (N,), gradient (D, N),
Hessian (D, D, N)), and the value broadcasts against the others as it is.
Sums, products, quotients and compositions with the supported scalar
functions propagate derivatives exactly (truncated Leibniz/chain rules), so
metric components defined by closed-form expressions yield machine-precision
derivatives without a CAS. Plain floats mix freely with jets as constants.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Jet2", "JET_FUNCTIONS"]


class Jet2:
    """Value, gradient and Hessian with shapes B, (D,) + B and (D, D) + B."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    @staticmethod
    def constant(value, dim: int) -> "Jet2":
        value = np.asarray(value, dtype=float)
        return Jet2(value, np.zeros((dim,) + value.shape), np.zeros((dim, dim) + value.shape))

    @staticmethod
    def coordinate(value, index: int, dim: int) -> "Jet2":
        jet = Jet2.constant(value, dim)
        jet.grad[index] = 1.0
        return jet

    # arithmetic -----------------------------------------------------------

    def __add__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)
        return Jet2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)
        return Jet2(self.value - other, self.grad, self.hess)

    def __rsub__(self, other) -> "Jet2":
        return Jet2(other - self.value, -self.grad, -self.hess)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.grad, -self.hess)

    def __mul__(self, other) -> "Jet2":
        if not isinstance(other, Jet2):
            return Jet2(self.value * other, self.grad * other, self.hess * other)
        u0, v0 = self.value, other.value
        ug, vg = self.grad, other.grad
        outer = ug[:, None] * vg[None, :]
        hess = self.hess * v0 + u0 * other.hess + outer + np.swapaxes(outer, 0, 1)
        return Jet2(u0 * v0, ug * v0 + u0 * vg, hess)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other) -> "Jet2":
        return self._reciprocal() * other

    def __pow__(self, exponent: int) -> "Jet2":
        if not isinstance(exponent, int):
            raise TypeError("jet power requires an integer exponent")
        if exponent == 0:
            return Jet2.constant(np.ones_like(self.value), self.dim)
        if exponent < 0:
            return (self.__pow__(-exponent))._reciprocal()
        # left-to-right binary powering: x^2 and x^3 are the products x x and
        # (x x) x, and a huge exponent costs two products per bit
        out = self
        for bit in bin(exponent)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def _reciprocal(self) -> "Jet2":
        v = self.value
        if np.any(v == 0.0):
            raise ZeroDivisionError("jet reciprocal of zero")
        return self._compose(1.0 / v, -1.0 / np.square(v), 2.0 / np.power(v, 3))

    # composition with a smooth scalar function ----------------------------

    def _compose(self, f0, f1, f2) -> "Jet2":
        """Chain rule through second order for f(self)."""
        g = self.grad
        return Jet2(f0, f1 * g, f2 * (g[:, None] * g[None, :]) + f1 * self.hess)

    def sqrt(self) -> "Jet2":
        v = self.value
        if np.any(v <= 0.0):
            raise ValueError(f"sqrt domain error: {v}")
        s = np.sqrt(v)
        return self._compose(s, 0.5 / s, -0.25 / (s * v))

    def exp(self) -> "Jet2":
        e = np.exp(self.value)
        return self._compose(e, e, e)

    def log(self) -> "Jet2":
        v = self.value
        if np.any(v <= 0.0):
            raise ValueError(f"log domain error: {v}")
        return self._compose(np.log(v), 1.0 / v, -1.0 / np.square(v))

    def sin(self) -> "Jet2":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._compose(s, c, -s)

    def cos(self) -> "Jet2":
        s, c = np.sin(self.value), np.cos(self.value)
        return self._compose(c, -s, -c)

    def tan(self) -> "Jet2":
        t = np.tan(self.value)
        s = 1.0 + t * t  # sec^2
        return self._compose(t, s, 2.0 * s * t)

    def sinh(self) -> "Jet2":
        s, c = np.sinh(self.value), np.cosh(self.value)
        return self._compose(s, c, s)

    def cosh(self) -> "Jet2":
        s, c = np.sinh(self.value), np.cosh(self.value)
        return self._compose(c, s, c)

    def __repr__(self) -> str:
        return f"Jet2(value={self.value!r}, dim={self.dim})"


JET_FUNCTIONS: dict[str, Callable[[Jet2], Jet2]] = {
    name: getattr(Jet2, name)
    for name in ("sqrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh")}
