"""Manufactured elliptic problems with closed-form data.

Each problem packages the exact solution u of

    -div(a grad u) + b . grad u + c u = f  in Omega,   u = g on the boundary

together with the coefficient evaluators. The right-hand side f is always
synthesized from the closed forms, f = -a lap(u) - grad(a).grad(u)
+ b.grad(u) + c u, so the discrete solution can be compared against u
directly. All evaluators are vectorized: they take points of shape
(..., dim) and return (...) for scalars or (..., dim) for vectors.

A pass asks for the data it needs at one point set with
``Problem.sample(pts, names)``, which returns fresh arrays. Boundary
data is one more name, g: the problem's g, or else u's values from the
same evaluation. Any datum may be a constant, such as
``a = lambda x: 1.0``, and is broadcast to the points' shape; a leaf of
the wrong shape, a value that is not finite and an a that is not
positive raise ValueError naming the datum and, for a value, the point
(``_checked``). By default it calls each leaf at most once and
synthesizes f from those same arrays. The built-in problems have one
terms function each, which computes every exponential, bump and
half-angle pair once for all the names asked; their leaves read single
names from it. Nothing is kept between calls. A problem whose leaves
were replaced, say with ``dataclasses.replace``, samples through its
leaves.

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

# the names Problem.sample returns: the data, the load f, the exact
# flux a grad u and the boundary data g
SAMPLED = ("u", "grad_u", "a", "b", "c", "f", "flux", "g")
# the leaves sample evaluates, in evaluation order
_LEAVES = ("u", "grad_u", "lap_u", "a", "grad_a", "b", "c", "g")
# the data whose values carry a trailing axis of length dim
_VECTORS = ("grad_u", "grad_a", "b", "flux")


def _checked(name: str, values, pts: np.ndarray) -> np.ndarray:
    """values, the samples of datum name at pts, in the shape of the
    points: (...) for a scalar datum, (..., dim) for grad_u, grad_a, b
    and the flux. A Python or numpy scalar is broadcast to that shape;
    any other shape raises ValueError naming the datum. So does a value
    that is not finite, or an a that is not positive (ellipticity),
    naming the first such point, so bad input stops a pass instead of
    reaching a report.
    """
    shape = pts.shape if name in _VECTORS else pts.shape[:-1]
    if np.ndim(values) == 0:
        values = np.full(shape, values, dtype=float)
    elif np.shape(values) != shape:
        raise ValueError(f"problem data {name} has shape "
                         f"{np.shape(values)}, expected {shape} at points "
                         f"of shape {pts.shape}")
    ok, what = np.isfinite(values), "finite"
    if name == "a" and ok.all():
        ok, what = values > 0.0, "positive"
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValueError(f"problem data {name} is not {what} at "
                         f"x = {pts[i[:pts.ndim - 1]]}: {values[i]}")
    return values


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

    def sample(self, pts: np.ndarray, names) -> dict:
        """The data names at the points pts (..., dim), from one evaluation.

        names are among ``SAMPLED``: u, grad_u, a, b, c, f, the exact
        flux a grad u and the boundary data g, which is the problem's g
        or else u's values. Returns {name: array}, each array fresh; b
        and c are left out when the problem has none (they are
        identically zero then). Every leaf the names need, f's closed
        forms included, is evaluated once: in one call of the terms
        function all of them read (the built-in problems), or else leaf
        by leaf. f and the flux are formed from those same arrays. Each
        leaf value and a prescribed source, then f and the flux, pass
        ``_checked``, so a constant is broadcast and a datum of the
        wrong shape, not finite, or an a that is not positive is named
        by the leaf it comes from.
        """
        names = [n for n in names
                 if n not in ("b", "c") or getattr(self, n) is not None]
        unknown = set(names) - set(SAMPLED)
        if unknown:
            raise ValueError(f"unknown problem data {sorted(unknown)}")
        need = set(names) - {"f", "flux", "g"}
        if "flux" in names:
            need |= {"a", "grad_u"}
        if "g" in names:
            need.add("u" if self.g is None else "g")
        synthesize = "f" in names and self.source is None
        if synthesize:
            need |= {"a", "lap_u"}
            for leaf, partner in (("grad_a", "grad_u"), ("b", "grad_u"),
                                  ("c", "u")):
                if getattr(self, leaf) is not None:
                    need |= {leaf, partner}
        deps = [n for n in _LEAVES if n in need]
        leaves = [getattr(self, n) for n in deps]
        if leaves and all(isinstance(leaf, _Leaf)
                          and leaf.terms is leaves[0].terms
                          for leaf in leaves):
            got = leaves[0].terms(pts, deps)
            vals = {n: got[n] for n in deps}
        else:
            vals = {n: leaf(pts) for n, leaf in zip(deps, leaves)}
        for name, v in vals.items():
            vals[name] = _checked(name, v, pts)
        out = {}
        for name in names:
            if name == "f":
                out[name] = _checked(name, _source(vals) if synthesize
                                     else self.source(pts), pts)
            elif name == "flux":
                out[name] = _checked(name, vals["a"][..., None]
                                     * vals["grad_u"], pts)
            elif name == "g" and self.g is None:
                # u's values, copied if u is returned too
                out[name] = vals["u"].copy() if "u" in names else vals["u"]
            else:
                out[name] = vals[name]
        return out


class Term:
    """The datum name of problem (one of ``SAMPLED``) as a callable on
    points. ``analysis.l2_error`` samples the Terms of one problem in one
    ``Problem.sample`` call per block."""

    __slots__ = ("problem", "name")

    def __init__(self, problem: Problem, name: str):
        self.problem, self.name = problem, name

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.problem.sample(x, (self.name,))[self.name]


def _source(t: dict) -> np.ndarray:
    """f = -a lap_u - grad_a . grad_u + b . grad_u + c u from the leaf
    values t, in this order; a missing grad_a, b or c is left out."""
    out = -t["a"] * t["lap_u"]
    if "grad_a" in t:
        out = out - np.einsum("...d,...d->...", t["grad_a"], t["grad_u"])
    if "b" in t:
        out = out + np.einsum("...d,...d->...", t["b"], t["grad_u"])
    if "c" in t:
        out = out + t["c"] * t["u"]
    return out


class _Leaf:
    """A leaf of a built-in problem: the one name of its terms function,
    terms(x, names) -> {name: array}, which ``Problem.sample`` calls once
    for all the leaves it needs."""

    __slots__ = ("terms", "name")

    def __init__(self, terms: Callable, name: str):
        self.terms, self.name = terms, name

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.terms(x, (self.name,))[self.name]


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

    def terms(x, names):
        x0, x1 = x[..., 0], x[..., 1]
        out = {}
        if {"u", "grad_u", "lap_u"}.intersection(names):
            e = np.exp(2.0 * x0 + x1)
            p, q, dp, dq = _bump(x0), _bump(x1), _dbump(x0), _dbump(x1)
            if "u" in names:
                out["u"] = e * p * q
            if "grad_u" in names:
                out["grad_u"] = np.stack([e * (2.0 * p + dp) * q,
                                          e * p * (q + dq)], axis=-1)
            if "lap_u" in names:
                out["lap_u"] = (e * (4.0 * p + 4.0 * dp + 2.0) * q
                                + e * p * (q + 2.0 * dq + 2.0))
        if {"a", "grad_a"}.intersection(names):
            ea = out["a"] = np.exp(x0)
            if "grad_a" in names:
                out["grad_a"] = np.stack([ea, np.zeros(x.shape[:-1])],
                                         axis=-1)
        if "b" in names:
            out["b"] = np.array(x, copy=True)
        if "c" in names:
            out["c"] = np.exp(x0 + x1)
        return out

    return Problem(
        name="p1", dim=2,
        **{n: _Leaf(terms, n) for n in _LEAVES if n != "g"},
        initial_gridlines=((0.0, 0.4, 0.8, 1.0), (0.0, 0.7, 1.0)))


def problem2() -> Problem:
    """3d test case: oscillatory u with exponential diffusion, b = 0, c = 0.

    u = exp(x1 + x2) sin(3 pi x1) sin(2 pi x2) sin(pi x3) on the unit cube
    with a = exp(x1 + x2 + x3).
    """
    pi = np.pi

    def terms(x, names):
        out = {}
        if {"u", "grad_u", "lap_u"}.intersection(names):
            e = np.exp(x[..., 0] + x[..., 1])
            s1, c1 = _sin_cos(3 * pi * x[..., 0])
            s2, c2 = _sin_cos(2 * pi * x[..., 1])
            s3, c3 = _sin_cos(pi * x[..., 2])
            if "u" in names:
                out["u"] = e * s1 * s2 * s3
            if "grad_u" in names:
                out["grad_u"] = np.stack([
                    e * (s1 + 3 * pi * c1) * s2 * s3,
                    e * s1 * (s2 + 2 * pi * c2) * s3,
                    e * s1 * s2 * pi * c3,
                ], axis=-1)
            if "lap_u" in names:
                d11 = (e * ((1.0 - 9.0 * pi * pi) * s1 + 6.0 * pi * c1)
                       * s2 * s3)
                d22 = (e * s1 * ((1.0 - 4.0 * pi * pi) * s2 + 4.0 * pi * c2)
                       * s3)
                d33 = -pi * pi * e * s1 * s2 * s3
                out["lap_u"] = d11 + d22 + d33
        if {"a", "grad_a"}.intersection(names):
            av = out["a"] = np.exp(x[..., 0] + x[..., 1] + x[..., 2])
            if "grad_a" in names:
                out["grad_a"] = np.stack([av, av, av], axis=-1)
        return out

    return Problem(
        name="p2", dim=3,
        **{n: _Leaf(terms, n) for n in ("u", "grad_u", "lap_u", "a",
                                         "grad_a")},
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
