"""Manufactured elliptic problems with closed-form data.

Each problem packages the exact solution u of

    -div(a grad u) + b . grad u + c u = f  in Omega,   u = g on the boundary

together with the coefficient evaluators. The right-hand side f is always
synthesized from the closed forms, f = -a lap(u) - grad(a).grad(u)
+ b.grad(u) + c u, so the discrete solution can be compared against u
directly. All evaluators are vectorized: they take points of shape
(..., dim) and return (...) for scalars or (..., dim) for vectors.

The built-in problems compute the terms their leaves share (p1's
exponential and bumps, p2's exponential, sines and cosines) once per
point set: ``f`` calls ``lap_u`` and ``grad_u`` at the same points, and
an error norm calls ``u`` and the exact flux there. Each problem keeps
its last point set and terms (``_last_points``); custom problems are
unchanged.

p2 takes each sine and cosine pair from one tangent, t = tan(theta / 2),
as sin = 2t / (1 + t^2) and cos = (1 - t^2) / (1 + t^2) (``_sin_cos``).
numpy's float64 sin and cos are one libm call a point, about 15-18 ns,
where its vectorized tan takes about 2.5 ns, and p2 needs three pairs at
every point of every cell rule. Against np.sin and np.cos the pair
differs by at most 2.2e-16 on [-4 pi, 4 pi], multiples of pi included,
where t is 0 or near its poles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Scalar = Callable[[np.ndarray], np.ndarray]
Vector = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """Coefficients and exact solution of one elliptic boundary value problem.

    b and c may be None, meaning identically zero; grad_a may be None when
    a is constant. g defaults to the trace of u. A non-None source
    short-circuits the synthesis and is used verbatim as f, which is how
    problems with prescribed (e.g. piecewise-constant) loads are built.
    """

    name: str
    dim: int
    u: Scalar
    grad_u: Vector
    lap_u: Scalar
    a: Scalar
    grad_a: Optional[Vector] = None
    b: Optional[Vector] = None
    c: Optional[Scalar] = None
    g: Optional[Scalar] = None
    source: Optional[Scalar] = None
    initial_gridlines: Optional[tuple] = field(default=None, repr=False)

    def f(self, x: np.ndarray) -> np.ndarray:
        """Right-hand side synthesized from the closed forms."""
        if self.source is not None:
            return self.source(x)
        out = -self.a(x) * self.lap_u(x)
        if self.grad_a is not None:
            out = out - np.einsum("...d,...d->...", self.grad_a(x),
                                  self.grad_u(x))
        if self.b is not None:
            out = out + np.einsum("...d,...d->...", self.b(x),
                                  self.grad_u(x))
        if self.c is not None:
            out = out + self.c(x) * self.u(x)
        return out

    def boundary(self, x: np.ndarray) -> np.ndarray:
        return self.u(x) if self.g is None else self.g(x)


def _last_points(terms):
    """terms(x), remembered for the last point array it was called with.

    The key is a copy of the points, matched by value with array_equal,
    not by identity, so a caller that overwrites its array in place gets
    fresh terms. The terms are shared between calls and read-only; the
    leaves build fresh arrays from them.
    """
    last_x = last_terms = None

    def cached(x):
        nonlocal last_x, last_terms
        if last_x is None or not np.array_equal(x, last_x):
            last_x = last_terms = None      # free the old entry first
            fresh = terms(x)
            for t in fresh:
                t.setflags(write=False)
            last_x, last_terms = np.array(x, copy=True), fresh
        return last_terms

    return cached


def _bump(t):
    return t * (t - 1.0)


def _dbump(t):
    return 2.0 * t - 1.0


def _sin_cos(theta):
    """(sin theta, cos theta) from the one tangent t = tan(theta / 2):
    sin = 2t / (1 + t^2), cos = (1 - t^2) / (1 + t^2)."""
    t = np.tan(0.5 * theta)
    t2 = t * t
    inv = 1.0 / (1.0 + t2)
    return 2.0 * t * inv, (1.0 - t2) * inv


def problem1() -> Problem:
    """2d test case: boundary-adapted exponential bump, full coefficients.

    u = exp(2 x1 + x2) x1 (x1-1) x2 (x2-1) on the unit square with
    a = exp(x1), b = (x1, x2), c = exp(x1 + x2).
    """

    @_last_points
    def parts(x):
        return (np.exp(2.0 * x[..., 0] + x[..., 1]),
                _bump(x[..., 0]), _bump(x[..., 1]),
                _dbump(x[..., 0]), _dbump(x[..., 1]))

    def u(x):
        e, p, q, _, _ = parts(x)
        return e * p * q

    def grad_u(x):
        e, p, q, dp, dq = parts(x)
        return np.stack([e * (2.0 * p + dp) * q, e * p * (q + dq)], axis=-1)

    def lap_u(x):
        e, p, q, dp, dq = parts(x)
        return (e * (4.0 * p + 4.0 * dp + 2.0) * q
                + e * p * (q + 2.0 * dq + 2.0))

    def a(x):
        return np.exp(x[..., 0])

    def grad_a(x):
        return np.stack([np.exp(x[..., 0]), np.zeros(x.shape[:-1])], axis=-1)

    def b(x):
        return np.array(x, copy=True)

    def c(x):
        return np.exp(x[..., 0] + x[..., 1])

    return Problem(
        name="p1", dim=2, u=u, grad_u=grad_u, lap_u=lap_u,
        a=a, grad_a=grad_a, b=b, c=c,
        initial_gridlines=((0.0, 0.4, 0.8, 1.0), (0.0, 0.7, 1.0)))


def problem2() -> Problem:
    """3d test case: oscillatory u with exponential diffusion, b = 0, c = 0.

    u = exp(x1 + x2) sin(3 pi x1) sin(2 pi x2) sin(pi x3) on the unit cube
    with a = exp(x1 + x2 + x3).
    """
    pi = np.pi

    @_last_points
    def parts(x):
        e = np.exp(x[..., 0] + x[..., 1])
        s1, c1 = _sin_cos(3 * pi * x[..., 0])
        s2, c2 = _sin_cos(2 * pi * x[..., 1])
        s3, c3 = _sin_cos(pi * x[..., 2])
        return e, s1, c1, s2, c2, s3, c3

    def u(x):
        e, s1, _, s2, _, s3, _ = parts(x)
        return e * s1 * s2 * s3

    def grad_u(x):
        e, s1, c1, s2, c2, s3, c3 = parts(x)
        return np.stack([
            e * (s1 + 3 * pi * c1) * s2 * s3,
            e * s1 * (s2 + 2 * pi * c2) * s3,
            e * s1 * s2 * pi * c3,
        ], axis=-1)

    def lap_u(x):
        e, s1, c1, s2, c2, s3, _ = parts(x)
        d11 = e * ((1.0 - 9.0 * pi * pi) * s1 + 6.0 * pi * c1) * s2 * s3
        d22 = e * s1 * ((1.0 - 4.0 * pi * pi) * s2 + 4.0 * pi * c2) * s3
        d33 = -pi * pi * e * s1 * s2 * s3
        return d11 + d22 + d33

    def a(x):
        return np.exp(x[..., 0] + x[..., 1] + x[..., 2])

    def grad_a(x):
        av = a(x)
        return np.stack([av, av, av], axis=-1)

    return Problem(
        name="p2", dim=3, u=u, grad_u=grad_u, lap_u=lap_u,
        a=a, grad_a=grad_a,
        initial_gridlines=((0.0, 0.5, 1.0), (0.0, 0.6, 1.0), (0.0, 0.4, 1.0)))


def custom_problem(dim: int, u: Scalar, grad_u: Vector, lap_u: Scalar,
                   a: Scalar, grad_a: Optional[Vector] = None,
                   b: Optional[Vector] = None, c: Optional[Scalar] = None,
                   g: Optional[Scalar] = None, source: Optional[Scalar] = None,
                   name: str = "custom", initial_gridlines=None) -> Problem:
    """Package user-supplied closed forms as a Problem."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return Problem(name=name, dim=dim, u=u, grad_u=grad_u, lap_u=lap_u,
                   a=a, grad_a=grad_a, b=b, c=c, g=g, source=source,
                   initial_gridlines=initial_gridlines)


REGISTRY = {"p1": problem1, "p2": problem2}
