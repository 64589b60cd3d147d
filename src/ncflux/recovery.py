"""Flux correction and superconvergent recovery on box meshes.

The discrete flux of the nonconforming method is discontinuous across
facets. Three ingredients repair it:

* a divergence-one correction field, scaled per element so that the
  corrected flux has (numerically) continuous normal components;
* the element-wise L2 projection of the raw flux onto the span of the
  local shape-function gradients, which is where the correction theory
  lives;
* a midpoint-averaging operator that turns the corrected flux into a
  midpoint-continuous vector field, using measure-weighted averages at
  interior facets and extrapolation along inward chains at boundary
  facets.

The projection never samples basis functions at points: its Gram matrix
is the span's products integrated by the cells' geometry moments, and in
``corrected_flux`` its right-hand side is the affine gradient times the
moments of a up to degree 2 (``elements.cell_moments``). The same code
paths serve 2d (edges) and 3d (faces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import NcrtField
from .elements import (BrokenRT, basis_values, cell_blocks, cell_moments,
                       cell_quadrature, facet_blocks, facet_quadrature,
                       nc_basis)
from .mesh import TensorMesh
from .problems import Problem
from .quadrature import monomial_exponents


def correction_field(mesh: TensorMesh) -> BrokenRT:
    """Element-wise field r with div r = 1 and special orthogonality.

    On element K with extents l_1..l_d centered at x_K,

        r_i(x) = gamma_i (x_i - x_K,i),
        gamma_i = prod_{j != i} l_j^2 / sum_k prod_{j != k} l_j^2.

    The coefficients make r L2(K)-orthogonal to every divergence-free
    local flux polynomial, which is what lets a piecewise-constant
    multiple of r cancel the normal jumps of the discrete flux.
    """
    l2 = mesh.elem_ext ** 2
    prod = np.prod(l2, axis=1, keepdims=True)
    p = prod / l2                      # p[:, i] = prod_{j != i} l_j^2
    gamma = p / p.sum(axis=1, keepdims=True)
    return BrokenRT(mesh, alpha=-gamma * mesh.elem_center, beta=gamma)


def project_onto_gradients(mesh: TensorMesh, values: np.ndarray,
                           pts: np.ndarray, wts: np.ndarray) -> BrokenRT:
    """Element-wise L2 projection onto the local gradient span.

    The target span on each element is generated by the constant fields
    e_1..e_d together with the gradients of the quadratic shape
    monomials, i.e. fields of the form (2 x_1, 0, .., -2 x_k, .., 0).
    values (ne, nq, d) are samples of the projected function at the
    points pts of a rule with weights wts that integrates the span's
    products exactly, like cell_quadrature's; the right-hand sides are
    summed over those points, a block of ``cell_blocks`` at a time.
    """
    tables = nc_basis(mesh, "mean")

    def rhs():
        for blk in cell_blocks(mesh):
            wv = wts[blk, :, None] * values[blk]
            xi = tables.local_coords(pts[blk], blk)
            yield blk, wv.sum(axis=1), (wv * xi).sum(axis=1)

    return _projection(mesh, rhs())


def _projection(mesh: TensorMesh, blocks) -> BrokenRT:
    """The projection of v onto the span of e_j and xi_0 e_0 - xi_k e_k.

    blocks yields (rows, v0, v1) covering the elements once, with
    v0[:, j] = int_K v_j and v1[:, j] = int_K v_j xi_j, both (b, d): the
    right-hand side is v0 and v1_0 - v1_k. The Gram matrix pairs the
    span's members through the geometry moments int_K 1, xi_j, xi_j^2.
    """
    d = mesh.dim
    nb = 2 * d - 1
    ax, quad = np.arange(d), np.arange(d, nb)
    square = _squares(d)
    tables = nc_basis(mesh, "mean")
    coef = np.empty((mesh.ne, nb))
    for blk, v0, v1 in blocks:
        geo = cell_moments(mesh, None, blk)
        first, second = geo[:, 1:d + 1], geo[:, square]
        gram = np.zeros((geo.shape[0], nb, nb))
        gram[:, ax, ax] = geo[:, :1]
        gram[:, 0, quad] = gram[:, quad, 0] = first[:, :1]
        gram[:, ax[1:], quad] = gram[:, quad, ax[1:]] = -first[:, 1:]
        gram[:, d:, d:] = second[:, 0, None, None]
        gram[:, quad, quad] += second[:, 1:]
        rhs = np.concatenate([v0, v1[:, :1] - v1[:, 1:]], axis=1)
        coef[blk] = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    s = tables.scale
    beta = np.empty((mesh.ne, d))
    beta[:, 0] = coef[:, d:].sum(axis=1) / s
    for k in range(1, d):
        beta[:, k] = -coef[:, d + k - 1] / s
    alpha = coef[:, :d] - beta * tables.center
    return BrokenRT(mesh, alpha, beta)


def _squares(d: int) -> np.ndarray:
    """Positions of xi_0^2, .., xi_{d-1}^2 among the degree-2 moments."""
    return np.flatnonzero(monomial_exponents(d, 2).max(axis=1) == 2)


def corrected_flux(field: NcrtField, problem: Problem) -> BrokenRT:
    """Continuity-corrected discrete flux.

    Projects a grad u_h onto the local gradient span, then subtracts the
    correction field scaled by the residual load f - b.grad u_h - c u_h,
    sampled at the element centroids. grad u_h is affine per component,
    g_j = g0_j + g1_j xi_j, so the projection's right-hand side needs
    only the moments of a up to degree 2 (``cell_moments``), taken a
    block of ``cell_blocks`` (``elements.BLOCK_POINTS`` quadrature
    points) at a time.
    """
    mesh = field.mesh
    d = mesh.dim
    tables = nc_basis(mesh, "mean")
    grad = field.gradient_rt()
    g0 = grad.alpha + grad.beta * tables.center
    g1 = grad.beta * tables.scale[:, None]
    square = _squares(d)

    def rhs():
        for blk in cell_blocks(mesh):
            pts, _ = cell_quadrature(mesh, blk)
            moments = cell_moments(mesh, problem.a(pts), blk)
            first = moments[:, 1:d + 1]
            yield (blk, g0[blk] * moments[:, :1] + g1[blk] * first,
                   g0[blk] * first + g1[blk] * moments[:, square])

    q = _projection(mesh, rhs())

    xc = mesh.elem_center
    p = problem.f(xc)
    if problem.b is not None:
        p = p - np.einsum("ed,ed->e", problem.b(xc),
                          field.gradients_at_centers())
    if problem.c is not None:
        p = p - problem.c(xc) * field.values_at_centers()
    return q - correction_field(mesh).scaled_by(p)


def rt_interpolate(mesh: TensorMesh, vec) -> BrokenRT:
    """Canonical facet-flux interpolant of a continuous vector field.

    Matches the facet integrals of the normal component, facet by facet,
    with the Gauss facet rule; the result has continuous normal
    components by construction. vec maps points (..., d) to (..., d); it
    is sampled a block of ``facet_blocks`` (``elements.BLOCK_POINTS``
    facet quadrature points) at a time.
    """
    dofs = np.empty(mesh.nf)
    for rows in facet_blocks(mesh):
        pts, wts = facet_quadrature(mesh, rows)
        normal_comp = np.take_along_axis(
            vec(pts), mesh.facet_axis[rows, None, None], axis=2)[..., 0]
        dofs[rows] = np.einsum("fq,fq->f", wts, normal_comp)

    d = mesh.dim
    alpha = np.empty((mesh.ne, d))
    beta = np.empty((mesh.ne, d))
    for k in range(d):
        lo_id = mesh.elem_facets[:, 2 * k]
        hi_id = mesh.elem_facets[:, 2 * k + 1]
        area = mesh.facet_measure[lo_id]
        beta[:, k] = (dofs[hi_id] - dofs[lo_id]) / mesh.elem_measure
        alpha[:, k] = dofs[lo_id] / area - beta[:, k] * mesh.elem_lo[:, k]
    return BrokenRT(mesh, alpha, beta)


def max_normal_jump(flux: BrokenRT) -> float:
    """Largest normal-component jump over interior facets.

    Normal traces of the flux polynomials are constant along each facet,
    so midpoint traces capture the jumps exactly.
    """
    mesh = flux.mesh
    traces = flux.midpoint_traces()
    inter = mesh.interior_facets
    if inter.size == 0:
        return 0.0
    ax = mesh.facet_axis[inter]
    lo = traces[inter, 0, :][np.arange(inter.size), ax]
    hi = traces[inter, 1, :][np.arange(inter.size), ax]
    return float(np.abs(hi - lo).max())


@dataclass
class MidpointFlux:
    """Vector field with one value per facet midpoint.

    Componentwise it lives in the midpoint-dof nonconforming space, so
    values anywhere come from the midpoint-dual basis of each element.
    """

    mesh: TensorMesh
    values: np.ndarray           # (nf, d)

    def eval_at(self, pts: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Values at points (ne, nq, d) of the elements rows -> (ne, nq, d)."""
        mesh = self.mesh
        phi = basis_values(nc_basis(mesh, "midpoint"), pts, rows)
        return phi @ self.values[mesh.elem_facets[rows]]


def midpoint_average(flux: BrokenRT) -> MidpointFlux:
    """Average a broken flux into facet-midpoint values.

    Interior facet midpoints take the measure-weighted average of the
    two one-sided traces, each trace weighted by the measure of the
    element across the facet. Boundary midpoints are filled by linear
    extrapolation along the inward chain of facets: with E' the next
    facet into the mesh and E'' the one after,

        value(E) = (value(E') - w' value(E'')) / w,
        w = |K'| / (|K| + |K'|),  w' = |K| / (|K| + |K'|),

    where K is the boundary element and K' its inward neighbor. When E''
    is itself a boundary facet (only two elements across the axis), the
    one-sided trace from K' replaces value(E''). Meshes with fewer than
    two elements across an axis cannot support the chain and are
    rejected.
    """
    mesh = flux.mesh
    d = mesh.dim
    for k in range(d):
        if mesh.shape[k] < 2:
            raise ValueError(
                "boundary extrapolation needs >= 2 elements per axis; "
                f"axis {k} has {mesh.shape[k]}")
    traces = flux.midpoint_traces()
    measure = mesh.elem_measure
    vals = np.empty((mesh.nf, d))

    inter = mesh.interior_facets
    m = measure[mesh.facet_elems[inter]]           # (ni, 2)
    wsum = m.sum(axis=1, keepdims=True)
    vals[inter] = (m[:, [0]] * traces[inter, 1, :]
                   + m[:, [1]] * traces[inter, 0, :]) / wsum

    for k in range(d):
        block = mesh.facet_block(k)
        ids_all = np.arange(block.start, block.stop)
        pos = mesh.facet_pos[block]
        step = mesh.cross_size(k)
        n_k = mesh.shape[k]
        for side, sign in ((0, 1), (1, -1)):
            ids = ids_all[pos == (0 if side == 0 else n_k)]
            e1 = ids + sign * step
            e2 = ids + 2 * sign * step
            inner = 1 if side == 0 else 0
            K = mesh.facet_elems[ids, inner]
            Kp = mesh.facet_elems[e1, inner]
            w = measure[Kp] / (measure[K] + measure[Kp])
            wp = measure[K] / (measure[K] + measure[Kp])
            # When E'' is the opposite boundary facet (two elements
            # across), K' is its one adjacent element: below it on the
            # low-side chain, above it on the high-side chain.
            m2 = np.where(mesh.facet_boundary[e2][:, None],
                          traces[e2, side, :], vals[e2])
            vals[ids] = (vals[e1] - wp[:, None] * m2) / w[:, None]
    return MidpointFlux(mesh, vals)
