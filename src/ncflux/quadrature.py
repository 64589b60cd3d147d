"""Gauss quadrature on intervals, tensor-product boxes, and triangles.

Reference rules live on the unit interval [0, 1], the unit box [0, 1]^d,
or the unit triangle with vertices (0, 0), (1, 0), (0, 1). Interval and
box rules are Gauss-Legendre with the point count per axis as an
argument (``gauss1d(n)``, ``tensor_rule(dim, n)``): each caller names the
rule its integral needs (see ``elements.DATA_RULE`` and
``elements.NORM_RULE``). Mapping helpers push a reference rule onto
physical geometry, batched over many cells at once (leading axes of
``lo``/``ext``/``verts`` broadcast).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import _by_columns


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights on a reference domain.

    points has shape (nq,) for interval rules and (nq, dim) otherwise;
    weights has shape (nq,) and sums to the reference measure.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def npoints(self) -> int:
        return self.weights.shape[0]


@lru_cache(maxsize=None)
def gauss1d(n: int) -> QuadRule:
    """n-point Gauss-Legendre rule on [0, 1], exact through degree 2n - 1."""
    if n < 1:
        raise ValueError(f"a Gauss rule needs >= 1 point, got {n}")
    t, w = np.polynomial.legendre.leggauss(n)
    return QuadRule((t + 1.0) / 2.0, w / 2.0)


@lru_cache(maxsize=None)
def tensor_rule(dim: int, n: int) -> QuadRule:
    """Tensor product of the n-point Gauss rule on [0, 1]^dim.

    n^dim points; exact for polynomials of degree <= 2n - 1 in each
    variable.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    line = gauss1d(n)
    grids = np.meshgrid(*([line.points] * dim), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.ones(points.shape[0])
    wgrids = np.meshgrid(*([line.weights] * dim), indexing="ij")
    for wg in wgrids:
        weights = weights * wg.ravel()
    return QuadRule(points, weights)


@lru_cache(maxsize=None)
def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponents alpha of the monomials of total degree <= degree in dim
    variables, shape (n, dim), by total degree and then first variable
    first: 1, x_0, .., x_{d-1}, x_0^2, x_0 x_1, ... A lower degree's
    exponents are a prefix. Read-only."""
    alpha = np.array(sorted(
        (a for a in itertools.product(range(degree + 1), repeat=dim)
         if sum(a) <= degree),
        key=lambda a: (sum(a), [-k for k in a])), dtype=np.int64)
    alpha.setflags(write=False)
    return alpha


@lru_cache(maxsize=None)
def moment_table(dim: int, degree: int, n: int) -> np.ndarray:
    """The reference moment table w_q tau_q^alpha of the n-point tensor rule.

    tau = 2 t - 1 are the tensor_rule(dim, n) points moved onto [-1, 1]^dim
    and alpha runs over monomial_exponents(dim, degree); shape (n^dim,
    number of exponents).
    Samples v_q at the rule's points times this table are the means of
    v tau^alpha over the reference box. Read-only.
    """
    rule = tensor_rule(dim, n)
    tau = 2.0 * rule.points - 1.0
    powers = np.prod(tau[:, None, :] ** monomial_exponents(dim, degree),
                     axis=2)
    table = rule.weights[:, None] * powers
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def reference_monomials(dim: int, n: int) -> np.ndarray:
    """The monomials 1, tau_0, .., tau_{dim-1}, tau_0^2, .., tau_{dim-1}^2
    at the points tau = 2 t - 1 of tensor_rule(dim, n); shape
    (2 dim + 1, nq). Coefficients of a polynomial in these monomials times
    the table are its values at the rule's points. Read-only and
    C-ordered, like the other constant tables."""
    tau = (2.0 * tensor_rule(dim, n).points - 1.0).T
    table = np.empty((2 * dim + 1, tau.shape[1]))
    table[0] = 1.0
    table[1:dim + 1] = tau
    table[dim + 1:] = tau * tau
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def triangle_rule() -> QuadRule:
    """7-point degree-5 rule on the unit triangle (weights sum to 1/2)."""
    s15 = np.sqrt(15.0)
    a1 = (6.0 + s15) / 21.0
    a2 = (6.0 - s15) / 21.0
    w0 = 9.0 / 40.0
    w1 = (155.0 + s15) / 1200.0
    w2 = (155.0 - s15) / 1200.0
    points = np.array([
        [1.0 / 3.0, 1.0 / 3.0],
        [a1, a1], [1.0 - 2.0 * a1, a1], [a1, 1.0 - 2.0 * a1],
        [a2, a2], [1.0 - 2.0 * a2, a2], [a2, 1.0 - 2.0 * a2],
    ])
    weights = 0.5 * np.array([w0, w1, w1, w1, w2, w2, w2])
    return QuadRule(points, weights)


def map_to_box(rule: QuadRule, lo: np.ndarray, ext: np.ndarray):
    """Map a box rule from [0, 1]^d onto axis-aligned boxes.

    lo and ext have shape (..., d); returns points (..., nq, d) and
    weights (..., nq).
    """
    lo = np.asarray(lo, dtype=float)
    ext = np.asarray(ext, dtype=float)
    # one axis at a time: the same bits as broadcasting over (nq, d), but
    # numpy's inner loops then run over the nq points, not the d axes
    points = np.empty(lo.shape[:-1] + rule.points.shape)
    for k in range(lo.shape[-1]):
        points[..., k] = (lo[..., k, None]
                          + ext[..., k, None] * rule.points[:, k])
    weights = _by_columns(np.multiply, ext)[..., None] * rule.weights
    return points, weights


def map_to_triangle(rule: QuadRule, verts: np.ndarray):
    """Map the triangle rule onto physical triangles.

    verts has shape (..., 3, 2); returns points (..., nq, 2) and weights
    (..., nq) summing to each triangle's area. A reference point t maps
    to v_0 + t_0 (v_1 - v_0) + t_1 (v_2 - v_0), written one coordinate
    at a time as in ``map_to_box``.
    """
    verts = np.asarray(verts, dtype=float)
    v0 = verts[..., 0, :]
    e1 = verts[..., 1, :] - v0
    e2 = verts[..., 2, :] - v0
    t = rule.points
    points = np.empty(v0.shape[:-1] + t.shape)
    for k in range(t.shape[1]):
        points[..., k] = (v0[..., k, None] + t[:, 0] * e1[..., k, None]
                          + t[:, 1] * e2[..., k, None])
    det = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]
    weights = np.abs(det)[..., None] * rule.weights
    return points, weights
