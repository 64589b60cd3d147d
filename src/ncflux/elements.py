"""Local finite element bases and the broken flux types.

``BrokenRT`` is the one broken-flux type of both mesh families: a + b x
per element, componentwise, which is the lowest-order Raviart-Thomas
space on a box and, with b_0 = b_1, on a triangle. ``RawFlux`` is a
coefficient times a gradient, such as the raw discrete flux a grad u_h.

The scalar nonconforming space on a box element K is spanned by
{1, x_1, ..., x_d, x_1^2 - x_2^2, ..., x_1^2 - x_d^2}; its 2d degrees of
freedom sit on the facets of K, either as facet means ("mean") or as
facet-midpoint values ("midpoint"). On triangles the space is the
classic midpoint-continuous linear element.

This is the rotated element of Rannacher and Turek (Numer. Methods PDE
8, 1992). Box monomials are in the cell's centered coordinates
xi = x - x_K (x_K = ``elem_center``). Both dual bases are closed forms,
with no matrix inverted per element: the box tables depend only on each
cell's half-extents h = elem_ext / 2 (``nc_basis``), and the triangle
basis gradients are edge cofactors over |T| (``cr_basis``). Both are
built for the rows asked for (all by default) and not kept, so a block
pass holds only its own block's tables.

Box rules are named by purpose: ``DATA_RULE`` (3 Gauss points per axis)
for integrals of problem data, ``NORM_RULE`` (4 points) for the error
norms. Box integrals of data against polynomials in xi are cell moments,
int_K v xi^alpha (``cell_moments``): the data sampled at the mapped
tensor rule, times the one reference table of ``quadrature.moment_table``
(a matmul per cell), times |K| h^alpha with h = elem_ext / 2.
Both elements' dofs are facet means, so box facets and triangle edges
alike take the data rule (``facet_quadrature``).

The cells of either mesh are blocked (``cell_blocks``: at most
``BLOCK_POINTS`` points of the rule in use per box block, ``TRI_BLOCK``
triangles), mapped for the rows asked for and not kept
(``cell_quadrature``; triangles take the 7-point degree-5 rule for data
and norms alike) and tabulated (``cell_table``). Both maps are affine,
so a discrete field's values at the mapped rule are its reference
coefficients times the table (``reference_values``), with no point
mapped into the cell. On a box, x = center + (ext / 2) tau makes a
field a polynomial in 1, tau_k and tau_k^2 (``reference_coeffs``); on a
triangle the coefficients are the local dofs, or an affine field's
values at the edge midpoints, and the table is the basis 1 - 2 lambda_j
at the rule's points (``cr_rule_table``). ``cr_basis`` serves the
constant gradients. No discrete field is evaluated at arbitrary points:
its values at a rule are its reference coefficients times the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .mesh import TensorMesh, TriMesh, _by_columns
from .quadrature import (map_to_box, map_to_triangle, moment_table,
                         monomial_exponents, reference_monomials,
                         tensor_rule, triangle_rule)


def span_size(dim: int) -> int:
    return 2 * dim


def span_polynomials(dim: int) -> tuple[dict, ...]:
    """The span's members as {exponent tuple: coefficient} polynomials in
    xi, in coefficient order: 1, xi_k, xi_0^2 - xi_k^2."""
    unit = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    polys = [{(0,) * dim: 1.0}] + [{e: 1.0} for e in unit]
    for k in range(1, dim):
        polys.append({tuple(2 * j for j in unit[0]): 1.0,
                      tuple(2 * j for j in unit[k]): -1.0})
    return tuple(polys)


def nc_basis(mesh: TensorMesh, kind: str = "mean",
             rows=slice(None)) -> np.ndarray:
    """Dof-dual basis tables of the cells ``rows`` (all by default) for
    the nonconforming space on a box mesh: coeff (b, 2d, 2d), with
    coeff[e] mapping dof values to span coefficients, so a local function
    with dof vector v is sum_m (coeff[e] @ v)[m] * span_m(xi). Dof order
    matches TensorMesh.elem_facets.

    kind "mean" uses facet means (the solvable space); "midpoint" uses
    facet-midpoint values (the space the recovered flux lives in).

    The tables are closed forms in the half-extents h = elem_ext / 2
    of each cell, whose facets lie at xi_k = -h_k (dof 2k) and xi_k = +h_k
    (dof 2k + 1). The dofs of facet k take xi_k to +-h_k, every other xi_j
    to 0, and xi_j^2 to h_j^2 if j = k and mu h_j^2 otherwise, with
    mu = 1/3 for means and 0 for midpoints. So the xi_k rows are
    +-1/(2 h_k). With y_k the half-sum of facet k's two dofs, c_0 the
    coefficient of 1 and c the coefficients of xi_0^2 - xi_m^2
    (m = 1..d-1), facet k's equation minus facet 0's is
    (1 - mu) M c = y_0 - y_k with M = h_0^2 11^T + diag(h_1^2, ..,
    h_{d-1}^2), whose inverse is a closed form (``_quadratic_inverse``),
    and facet 0's equation then gives c_0. Built for the rows asked for
    and not kept, like ``cr_basis``'s; every row is computed on its own,
    so its bits do not depend on the other rows asked for.
    """
    if kind not in ("mean", "midpoint"):
        raise ValueError(f"unknown dof kind {kind!r}")
    d = mesh.dim
    if d not in (2, 3):
        raise ValueError("element requires dimension 2 or 3")
    mu = 1.0 / 3.0 if kind == "mean" else 0.0
    h = 0.5 * mesh.elem_ext[rows]
    sq = h * h
    # dual[:, i, k]: the coefficient of y_k in c_0 (i = 0) or c_i
    inv = _quadratic_inverse(sq) / (1.0 - mu)
    dual = np.empty((sq.shape[0], d, d))
    dual[:, 1:, 0] = _by_columns(np.add, inv)
    dual[:, 1:, 1:] = -inv
    # c_0 = y_0 - sum_m (facet 0's dof of xi_0^2 - xi_m^2) c_m
    facet0 = sq[:, :1] - mu * sq[:, 1:]
    dual[:, 0, :] = -_by_columns(
        np.add, facet0[:, None, :] * dual[:, 1:, :].transpose(0, 2, 1))
    dual[:, 0, 0] += 1.0
    coeff = np.zeros((sq.shape[0], span_size(d), 2 * d))
    for k in range(d):
        coeff[:, 1 + k, 2 * k] = -0.5 / h[:, k]
        coeff[:, 1 + k, 2 * k + 1] = 0.5 / h[:, k]
    # each of facet k's two dofs weighs half of y_k in 1, xi_0^2 - xi_m^2
    dual *= 0.5
    coeff[:, 0, 0::2] = coeff[:, 0, 1::2] = dual[:, 0]
    coeff[:, d + 1:, 0::2] = coeff[:, d + 1:, 1::2] = dual[:, 1:]
    return coeff


def _quadratic_inverse(sq: np.ndarray) -> np.ndarray:
    """M^-1 (b, d-1, d-1) for cells with squared half-extents sq (b, d),
    where M = h_0^2 11^T + diag(h_1^2, .., h_{d-1}^2) pairs the span's
    quadratic members in ``nc_basis`` and in the flux projection.

    M is diagonal plus rank one, so its inverse is Sherman and Morrison's
    closed form: with a = h_0^2, b_k = h_k^2 and c = 1/a + sum_m 1/b_m,
    entry (k, l) is -1/(b_k b_l c) off the diagonal and
    (1/a + sum_{m != k} 1/b_m) / (b_k c) on it. The diagonal sums only
    positive terms: c - 1/b_k would lose digits on long thin cells.
    """
    inv = 1.0 / sq
    c = _by_columns(np.add, inv)
    out = -inv[:, 1:, None] * inv[:, None, 1:] / c[:, None, None]
    for k in range(1, sq.shape[1]):
        others = _by_columns(np.add, inv[:, np.arange(inv.shape[1]) != k])
        out[:, k - 1, k - 1] = others * inv[:, k] / c
    return out


def reference_coeffs(mesh: TensorMesh, coeffs: np.ndarray,
                     rows=slice(None)) -> np.ndarray:
    """Span coefficients (b, 2d) or (b, m, 2d) of fields on the cells rows
    as coefficients in the reference monomials 1, tau_k, tau_k^2 of
    ``quadrature.reference_monomials``: (b, 2d + 1) or (b, m, 2d + 1).

    On a cell, xi = h tau with h = elem_ext / 2, so xi_k becomes
    h_k tau_k and xi_0^2 - xi_k^2 becomes h_0^2 tau_0^2 - h_k^2 tau_k^2.
    """
    d = mesh.dim
    h = 0.5 * mesh.elem_ext[rows]
    if coeffs.ndim == 3:
        h = h[:, None, :]
    sq = h * h
    out = np.empty(coeffs.shape[:-1] + (2 * d + 1,))
    out[..., 0] = coeffs[..., 0]
    out[..., 1:d + 1] = coeffs[..., 1:d + 1] * h
    out[..., d + 1] = sq[..., 0] * _by_columns(np.add, coeffs[..., d + 1:])
    out[..., d + 2:] = -sq[..., 1:] * coeffs[..., d + 1:]
    return out


def reference_values(coeffs: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Values at the points of ``cell_quadrature`` of fields given by
    their reference coefficients (b, K) or (b, m, K), with table (K, nq)
    the mesh's ``cell_table``: one matmul for the whole block. Returns
    (b, nq) or (b, nq, m)."""
    vals = (coeffs.reshape(-1, table.shape[0]) @ table).reshape(
        coeffs.shape[:-1] + table.shape[1:])
    return vals if coeffs.ndim == 2 else vals.transpose(0, 2, 1)


@dataclass
class BrokenRT:
    """Element-wise flux polynomial, component j of the form a_j + b_j x_j.

    On a box this is the lowest-order Raviart-Thomas space; on a triangle
    that space is a + b x with one scalar b, so there beta holds (b, b).
    The global field may jump across facets; its normal component on any
    facet is constant along that facet, so midpoint traces determine the
    normal jumps exactly.
    """

    mesh: TensorMesh | TriMesh
    alpha: np.ndarray        # (ne, d)
    beta: np.ndarray         # (ne, d)

    def reference_coeffs(self, rows=slice(None)) -> np.ndarray:
        """Reference coefficients of the components on the cells rows,
        for ``cell_table``. On a box, the coefficients in the reference
        monomials (``reference_coeffs``), (b, d, 2d + 1): on a cell
        x_j = c_j + (l_j / 2) tau_j, so component j is
        (a_j + b_j c_j) + (b_j l_j / 2) tau_j. On a triangle, the values
        at the three edge midpoints, (b, 2, 3): an affine function is
        the sum of its midpoint values times the basis 1 - 2 lambda_j."""
        mesh = self.mesh
        beta = self.beta[rows]
        if isinstance(mesh, TriMesh):
            mid = mesh.facet_midpoint[mesh.elem_facets[rows]]  # (b, 3, 2)
            return (self.alpha[rows, :, None]
                    + beta[:, :, None] * mid.transpose(0, 2, 1))
        d = mesh.dim
        out = np.zeros(beta.shape + (2 * d + 1,))
        ax = np.arange(d)
        out[:, ax, 0] = self.alpha[rows] + beta * mesh.elem_center[rows]
        out[:, ax, 1 + ax] = 0.5 * beta * mesh.elem_ext[rows]
        return out

    def l2_norm(self) -> float:
        """The L2 norm over the mesh, in closed form: on an element K with
        center c and second central moments m (``elem_second_moment``),
        the squared norm is |K| sum_j ((a_j + b_j c_j)^2 + b_j^2 m_j)."""
        mean = self.values_at_centers()
        cells = (mean * mean
                 + self.beta * self.beta * self.mesh.elem_second_moment)
        # numpy's pairwise sum, not a BLAS dot: the same at any thread count
        return float(np.sqrt(np.add.reduce(self.mesh.elem_measure
                                           * _by_columns(np.add, cells))))

    def values_at_centers(self) -> np.ndarray:
        """Values a + b x_K at the element centers, (ne, d): the cell
        means, since each component is affine."""
        return self.alpha + self.beta * self.mesh.elem_center

    def midpoint_traces(self) -> np.ndarray:
        """Full-vector traces at facet midpoints from both sides.

        Returns (nf, 2, d); side 0 is the lower-id neighbor in
        facet_elems, entries for missing neighbors are zero.
        """
        mesh = self.mesh
        out = np.zeros((mesh.nf, 2, mesh.dim))
        mid = mesh.facet_midpoint
        for side in (0, 1):
            e = mesh.facet_elems[:, side]
            ok = e >= 0
            out[ok, side, :] = self.alpha[e[ok]] + self.beta[e[ok]] * mid[ok]
        return out

    def __sub__(self, other: "BrokenRT") -> "BrokenRT":
        return BrokenRT(self.mesh, self.alpha - other.alpha,
                        self.beta - other.beta)

    def scaled_by(self, factor: np.ndarray) -> "BrokenRT":
        """Multiply by an element-wise scalar (ne,)."""
        f = np.asarray(factor)[:, None]
        return BrokenRT(self.mesh, self.alpha * f, self.beta * f)


@dataclass
class RawFlux:
    """Flux a grad: a pointwise times a gradient, which is either a table
    field (with reference_coeffs(rows)), such as gradient_rt() for the raw
    discrete flux a grad u_h, or a plain callable on points.
    ``analysis.l2_error`` reads its values."""

    a: Callable
    grad: BrokenRT | Callable


def cr_basis(trimesh: TriMesh, rows=slice(None)) -> np.ndarray:
    """Constant gradients (b, 2, 3) of the basis of the triangles
    ``rows`` (all by default).

    Basis function j, attached to the edge opposite vertex j, is
    1 - 2 lambda_j. With vertices (x_j, y_j), j+1 and j+2 taken
    cyclically, and 2|T| > 0 for the counterclockwise triangles that
    TriMesh stores, its gradient is
    -(y_{j+1} - y_{j+2}, x_{j+2} - x_{j+1}) / |T|.
    """
    v = trimesh.vertices[trimesh.triangles[rows]]  # (ne, 3, 2)
    x, y = v[..., 0], v[..., 1]
    nxt, prv = [1, 2, 0], [2, 0, 1]
    grad = np.empty(v.shape[:1] + (2, 3))
    grad[:, 0, :] = y[:, prv] - y[:, nxt]
    grad[:, 1, :] = x[:, nxt] - x[:, prv]
    grad /= trimesh.elem_measure[rows, None, None]
    return grad


@lru_cache(maxsize=None)
def cr_rule_table() -> np.ndarray:
    """Basis values 1 - 2 lambda_j at the points of ``triangle_rule``,
    shape (3, nq), the same on every triangle: the rule maps a reference
    point t to v_0 + t_0 (v_1 - v_0) + t_1 (v_2 - v_0), where
    lambda = (1 - t_0 - t_1, t_0, t_1). Local dofs (b, 3) times the
    table are values at the mapped rule (``reference_values``).
    Read-only."""
    t = triangle_rule().points
    lam = np.stack([1.0 - t[:, 0] - t[:, 1], t[:, 0], t[:, 1]])
    table = 1.0 - 2.0 * lam
    table.setflags(write=False)
    return table


# -- cell and facet quadrature, mapped on demand ------------------------------

BLOCK_POINTS = 32_768    # quadrature points per block of box or facet work
TRI_BLOCK = 1024         # triangles per block of per-point work

# Gauss points per axis of the rules, one per purpose. Data integrals
# (assembly's moments of the coefficients and the load, the correction's
# moments of a, and on any facet means of g and fluxes of the exact flux)
# only need to converge faster than the errors the study measures, and 3
# points are exact through degree 5 per axis. The box error norms are the
# measured quantities themselves and keep 4 points, exact through 7.
DATA_RULE = 3
NORM_RULE = 4


def row_blocks(n: int, size: int) -> list[slice]:
    """Slices of at most size rows covering range(n)."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _triangles(mesh) -> bool:
    """True on a TriMesh, False on a TensorMesh, TypeError otherwise."""
    if not isinstance(mesh, (TensorMesh, TriMesh)):
        raise TypeError(f"unsupported mesh type {type(mesh).__name__}")
    return isinstance(mesh, TriMesh)


def cell_blocks(mesh: TensorMesh | TriMesh,
                rule: int = NORM_RULE) -> list[slice]:
    """Row blocks of the cells: ``TRI_BLOCK`` triangles, or boxes with at
    most BLOCK_POINTS points of the rule-point cell rule (one cell at
    least)."""
    if _triangles(mesh):
        return row_blocks(mesh.ne, TRI_BLOCK)
    nq = tensor_rule(mesh.dim, rule).npoints
    return row_blocks(mesh.ne, max(1, BLOCK_POINTS // nq))


def facet_blocks(mesh: TensorMesh | TriMesh,
                 n: int | None = None) -> list[slice]:
    """Row blocks of n facets (all by default), each with at most
    BLOCK_POINTS points of ``facet_quadrature`` (one facet at least)."""
    nq = tensor_rule(mesh.dim - 1, DATA_RULE).npoints
    return row_blocks(mesh.nf if n is None else n, max(1, BLOCK_POINTS // nq))


def cell_quadrature(mesh: TensorMesh | TriMesh, rows=slice(None),
                    rule: int = NORM_RULE):
    """The cell rule mapped onto the cells ``rows``: (pts, wts). Boxes
    take the rule-point tensor Gauss rule; triangles take the 7-point
    degree-5 rule whatever rule names."""
    if _triangles(mesh):
        return map_to_triangle(triangle_rule(),
                               mesh.vertices[mesh.triangles[rows]])
    return map_to_box(tensor_rule(mesh.dim, rule), mesh.elem_lo[rows],
                      mesh.elem_ext[rows])


def cell_table(mesh: TensorMesh | TriMesh,
               rule: int = NORM_RULE) -> np.ndarray:
    """The table (K, nq) of reference coefficients at the points of
    ``cell_quadrature(mesh, rows, rule)`` (``reference_values``):
    ``reference_monomials`` on boxes, ``cr_rule_table`` on triangles."""
    if _triangles(mesh):
        return cr_rule_table()
    return reference_monomials(mesh.dim, rule)


def cell_moments(mesh: TensorMesh, samples, rows=slice(None),
                 degree: int = 2, rule: int = NORM_RULE) -> np.ndarray:
    """Moments int_K v xi^alpha, |alpha| <= degree, of data v on the cells
    rows, in monomial_exponents(dim, degree) order.

    samples (b, m, nq) hold m data at the points of
    cell_quadrature(mesh, rows, rule). Since xi = h tau with
    h = elem_ext / 2, a moment is the samples times moment_table,
    a matmul per cell, scaled by |K| h^alpha. The factor h^alpha is built
    from the powers h_k^p, p <= degree, by repeated multiplication and
    multiplied over the axes in axis order, so it is within a few ulp of
    the power formula and the same bits for any split of the rows.
    Returns (b, m, n).
    """
    d = mesh.dim
    table = moment_table(d, degree, rule)
    h = 0.5 * mesh.elem_ext[rows]
    # np.power would cost more than the rest of the factor
    powers = np.empty(h.shape + (degree + 1,))
    powers[..., 0] = 1.0
    for p in range(1, degree + 1):
        powers[..., p] = powers[..., p - 1] * h
    exps = monomial_exponents(d, degree)
    factor = powers[:, 0, exps[:, 0]]
    for k in range(1, d):
        factor *= powers[:, k, exps[:, k]]
    factor *= mesh.elem_measure[rows, None]
    # one matmul per cell keeps the bits independent of the block size
    return (samples @ table) * factor[:, None, :]


def facet_quadrature(mesh: TensorMesh | TriMesh, rows=slice(None)):
    """The data rule mapped onto the facets ``rows`` (all by default):
    the tensor rule over a box facet, the Gauss rule along a triangle edge
    from its low vertex to its high one. Returns (pts (nf, nq, d),
    wts (nf, nq)) for the facets asked for."""
    d = mesh.dim
    ref = tensor_rule(d - 1, DATA_RULE)
    if isinstance(mesh, TriMesh):
        a, b = np.moveaxis(mesh.vertices[mesh.edges[rows]], 1, 0)
        pts = a[:, None, :] + ref.points * (b - a)[:, None, :]
        return pts, mesh.facet_measure[rows, None] * ref.weights
    ids = np.arange(mesh.nf)[rows]
    fe = mesh.facet_elems[ids]
    inside = np.where(fe[:, 1] >= 0, fe[:, 1], fe[:, 0])
    axis = mesh.facet_axis[ids]
    pts = np.empty((ids.size, ref.npoints, d))
    wts = np.empty((ids.size, ref.npoints))
    for k in range(d):
        sel = np.flatnonzero(axis == k)
        other = [j for j in range(d) if j != k]
        lo = mesh.elem_lo[inside[sel]][:, other]
        ext = mesh.elem_ext[inside[sel]][:, other]
        pts[sel, :, k] = mesh.facet_midpoint[ids[sel], k][:, None]
        for c, j in enumerate(other):
            pts[sel, :, j] = (lo[:, None, c]
                              + ext[:, None, c] * ref.points[:, c])
        wts[sel] = _by_columns(np.multiply, ext)[:, None] * ref.weights
    return pts, wts
