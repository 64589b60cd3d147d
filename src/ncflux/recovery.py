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

The same code paths serve 2d (edges) and 3d (faces).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import NcrtField
from .elements import (BrokenRT, basis_values, cell_blocks, cell_quadrature,
                       facet_blocks, facet_quadrature, nc_basis)
from .mesh import TensorMesh
from .problems import Problem


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
    quadrature points pts with weights wts; Gram systems are assembled
    per element from the same rule, a block of ``cell_blocks`` at a time.
    """
    return _projection(mesh, ((blk, values[blk], pts[blk], wts[blk])
                              for blk in cell_blocks(mesh)))


def _projection(mesh: TensorMesh, blocks) -> BrokenRT:
    # blocks yields (rows, values, pts, wts) covering the elements once
    d = mesh.dim
    nb = 2 * d - 1
    tables = nc_basis(mesh, "mean")
    ne = mesh.ne
    coef = np.empty((ne, nb))
    for blk, values, pts, wts in blocks:
        nq = pts.shape[1]
        xi = tables.local_coords(pts, blk)
        B = np.zeros((xi.shape[0], nq, d, nb))
        for j in range(d):
            B[:, :, j, j] = 1.0
        for k in range(1, d):
            B[:, :, 0, d + k - 1] = xi[..., 0]
            B[:, :, k, d + k - 1] = -xi[..., k]
        # Gram matrix and right-hand side as wB^T @ (B | values), both
        # flattened over (points, components)
        wBt = (wts[:, :, None, None] * B).reshape(
            -1, nq * d, nb).transpose(0, 2, 1)
        gram = wBt @ B.reshape(-1, nq * d, nb)
        rhs = wBt @ values.reshape(-1, nq * d, 1)
        coef[blk] = np.linalg.solve(gram, rhs)[:, :, 0]
    s = tables.scale
    beta = np.empty((ne, d))
    beta[:, 0] = coef[:, d:].sum(axis=1) / s
    for k in range(1, d):
        beta[:, k] = -coef[:, d + k - 1] / s
    alpha = coef[:, :d] - beta * tables.center
    return BrokenRT(mesh, alpha, beta)


def corrected_flux(field: NcrtField, problem: Problem) -> BrokenRT:
    """Continuity-corrected discrete flux.

    Projects a grad u_h onto the local gradient span, then subtracts the
    correction field scaled by the residual load f - b.grad u_h - c u_h,
    sampled at the element centroids. The projection works a block of
    ``cell_blocks`` (``elements.BLOCK_POINTS`` quadrature points) at a
    time, so no per-point array spans the whole mesh.
    """
    mesh = field.mesh
    grad = field.gradient_rt()

    def raw_flux():
        for blk in cell_blocks(mesh):
            pts, wts = cell_quadrature(mesh, blk)
            raw = problem.a(pts)[..., None] * grad.eval_at(pts, blk)
            yield blk, raw, pts, wts

    q = _projection(mesh, raw_flux())

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
