"""Flux correction and superconvergent recovery.

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

The projection never samples basis functions at points: every cell is
symmetric about its center, so it is a least-squares fit with a
diagonal Gram matrix, |K| on the constants and int_K xi_k^2 on the
linear terms, under the one constraint that the linear coefficients sum
to zero; and in ``corrected_flux`` its right-hand side is the affine
gradient times the moments of a up to degree 2
(``elements.cell_moments``). The same code paths serve 2d (edges) and 3d
(faces).

Every broken flux is an ``elements.BrokenRT``, on boxes and on
triangles, so the correction field, the interpolants' facet fluxes
(``facet_fluxes``) and the jump check (``max_normal_jump``) serve both
mesh types; the projection, the interpolant and the averaging here are
the box ones, and ``ncflux.cr`` holds their triangle counterparts. Both
families average the corrected flux into a ``MidpointFlux``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import NcrtField
from .elements import (DATA_RULE, BrokenRT, cell_blocks, cell_moments,
                       cell_quadrature, facet_blocks, facet_quadrature,
                       nc_basis, reference_coeffs)
from .mesh import TensorMesh, TriMesh, _by_columns
from .problems import Problem
from .quadrature import monomial_exponents


def correction_field(mesh: TensorMesh | TriMesh) -> BrokenRT:
    """Element-wise field r with div r = 1 and special orthogonality.

    On element K centered at x_K, r_i(x) = gamma_i (x_i - x_K,i). On a
    box with extents l_1..l_d,

        gamma_i = l_i^-2 / sum_k l_k^-2.

    On a triangle the flux space a + b x forces gamma_0 = gamma_1, so
    gamma = (1/2, 1/2): Marini's link between the midpoint-linear and
    the lowest-order Raviart-Thomas solutions (SIAM J. Numer. Anal. 22,
    1985). The coefficients make r L2(K)-orthogonal to every
    divergence-free local flux polynomial, which is what lets a
    piecewise-constant multiple of r cancel the normal jumps of the
    discrete flux.
    """
    if isinstance(mesh, TriMesh):
        gamma = np.full((mesh.ne, 2), 0.5)
    else:
        inv = 1.0 / (mesh.elem_ext * mesh.elem_ext)
        gamma = inv / _by_columns(np.add, inv)[:, None]
    return BrokenRT(mesh, alpha=-gamma * mesh.elem_center, beta=gamma)


def _projection(mesh: TensorMesh, blocks) -> BrokenRT:
    """The projection of v onto the span of e_j and xi_0 e_0 - xi_k e_k,
    xi = x - elem_center.

    blocks yields (rows, v0, v1) covering the elements once, with
    v0[:, j] = int_K v_j and v1[:, j] = int_K v_j xi_j, both (b, d). The
    span is exactly {alpha + beta o xi : sum_k beta_k = 0}, so this is a
    least-squares fit under one constraint. Every cell is symmetric about
    its center, so the first moments of xi vanish: alpha = v0 / |K|, and
    beta minimizes sum_k (G_k beta_k^2 - 2 v1_k beta_k) with
    G_k = int_K xi_k^2 = |K| h_k^2 / 3, h = elem_ext / 2. Its Lagrange
    condition gives beta_k = (v1_k - lambda) / G_k, and sum_k beta_k = 0
    gives lambda = sum_k (v1_k / G_k) / sum_k (1 / G_k).
    """
    d = mesh.dim
    mean = np.empty((mesh.ne, d))
    beta = np.empty((mesh.ne, d))
    for blk, v0, v1 in blocks:
        measure = mesh.elem_measure[blk, None]
        h = 0.5 * mesh.elem_ext[blk]
        inv = 3.0 / (measure * h * h)             # 1 / G_k
        lam = _by_columns(np.add, v1 * inv) / _by_columns(np.add, inv)
        mean[blk] = v0 / measure
        beta[blk] = (v1 - lam[:, None]) * inv
    return BrokenRT(mesh, mean - beta * mesh.elem_center, beta)


def _squares(d: int) -> np.ndarray:
    """Positions of xi_0^2, .., xi_{d-1}^2 among the degree-2 moments."""
    return np.flatnonzero(monomial_exponents(d, 2).max(axis=1) == 2)


def corrected_flux(field: NcrtField, problem: Problem) -> BrokenRT:
    """Continuity-corrected discrete flux.

    Projects a grad u_h onto the local gradient span, then subtracts the
    correction field scaled by the residual load f - b.grad u_h - c u_h,
    sampled at the element centroids. grad u_h is affine per component,
    g_j = g0_j + g1_j xi_j, so the projection's right-hand side needs
    only the moments of a up to degree 2 (``cell_moments``) by the data
    rule (``elements.DATA_RULE``), taken a block of ``cell_blocks``
    (``elements.BLOCK_POINTS`` quadrature points) at a time.
    """
    mesh = field.mesh
    d = mesh.dim
    grad = field.gradient_rt()
    g0 = grad.alpha + grad.beta * mesh.elem_center
    g1 = grad.beta
    square = _squares(d)

    def rhs():
        for blk in cell_blocks(mesh, DATA_RULE):
            pts, _ = cell_quadrature(mesh, blk, DATA_RULE)
            a = problem.sample(pts, ("a",))["a"][:, None, :]
            moments = cell_moments(mesh, a, blk, rule=DATA_RULE)[:, 0]
            first = moments[:, 1:d + 1]
            yield (blk, g0[blk] * moments[:, :1] + g1[blk] * first,
                   g0[blk] * first + g1[blk] * moments[:, square])

    q = _projection(mesh, rhs())

    data = problem.sample(mesh.elem_center, ("f", "b", "c"))
    p = data["f"]
    if "b" in data:
        p = p - np.einsum("ed,ed->e", data["b"],
                          field.gradients_at_centers())
    if "c" in data:
        p = p - data["c"] * field.values_at_centers()
    return q - correction_field(mesh).scaled_by(p)


def facet_fluxes(mesh: TensorMesh | TriMesh, vec) -> np.ndarray:
    """(nf,) int_F vec . n_F over the facets F of either mesh family, n_F
    their ``facet_normal``, by the data rule (``facet_quadrature``); vec
    maps points (..., d) to (..., d) and is sampled a block of
    ``facet_blocks`` at a time."""
    flux = np.empty(mesh.nf)
    for rows in facet_blocks(mesh):
        pts, wts = facet_quadrature(mesh, rows)
        normal_comp = np.einsum("fqd,fd->fq", vec(pts),
                                mesh.facet_normal[rows])
        flux[rows] = np.einsum("fq,fq->f", wts, normal_comp)
    return flux


def rt_interpolate(mesh: TensorMesh, vec) -> BrokenRT:
    """Canonical facet-flux interpolant of a continuous vector field.

    Matches the facet integrals of the normal component
    (``facet_fluxes``), facet by facet; the result has continuous normal
    components by construction.
    """
    dofs = facet_fluxes(mesh, vec)

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
    """Largest normal-component jump over interior facets, on boxes and
    triangles alike.

    Normal traces of the flux polynomials are constant along each facet,
    so midpoint traces capture the jumps exactly.
    """
    mesh = flux.mesh
    inter = mesh.interior_facets
    if inter.size == 0:
        return 0.0
    traces = flux.midpoint_traces()[inter]
    jump = np.einsum("fd,fd->f", traces[:, 1, :] - traces[:, 0, :],
                     mesh.facet_normal[inter])
    return float(np.abs(jump).max())


@dataclass
class MidpointFlux:
    """Vector field with one value per facet midpoint: the recovered
    flux of every average, on boxes and on triangles.

    Componentwise it lives in the midpoint-dof nonconforming space: on
    a box the span of ``elements.nc_basis``, on a triangle ``ncflux.cr``'s
    midpoint-linear space, which holds the continuous piecewise-linear
    fields of ``cr.vertex_average``.
    """

    mesh: TensorMesh | TriMesh
    values: np.ndarray           # (nf, d)

    def reference_coeffs(self, rows=slice(None)) -> np.ndarray:
        """Reference coefficients of the components on the cells rows,
        for ``elements.cell_table``: on a box, through the midpoint-dual
        basis, in the reference monomials, (b, d, 2d + 1); on a triangle,
        whose table is the midpoint basis, the midpoint values, (b, 2, 3)."""
        mesh = self.mesh
        local = self.values[mesh.elem_facets[rows]]   # (b, facets, d)
        if isinstance(mesh, TriMesh):
            return local.transpose(0, 2, 1)
        span = nc_basis(mesh, "midpoint", rows) @ local     # (b, 2d, d)
        return reference_coeffs(mesh, span.transpose(0, 2, 1), rows)


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
    wsum = (m[:, 0] + m[:, 1])[:, None]
    vals[inter] = (m[:, [0]] * traces[inter, 1, :]
                   + m[:, [1]] * traces[inter, 0, :]) / wsum

    # the chain of each boundary facet E: its one cell K, the facet E' of
    # K opposite E, the cell K' across E', and the facet E'' of K'
    # opposite E'
    bnd = mesh.boundary_facets
    inner = (mesh.facet_elems[bnd, 0] < 0).astype(np.int64)   # K's side
    opposite = 2 * mesh.facet_axis[bnd] + inner
    K = mesh.facet_elems[bnd, inner]
    e1 = mesh.elem_facets[K, opposite]
    Kp = mesh.facet_elems[e1, inner]
    e2 = mesh.elem_facets[Kp, opposite]
    w = measure[Kp] / (measure[K] + measure[Kp])
    wp = measure[K] / (measure[K] + measure[Kp])
    # When E'' is the opposite boundary facet (two elements across), K'
    # is its one adjacent element: below it on the low-side chain, above
    # it on the high-side chain.
    m2 = np.where(mesh.facet_boundary[e2][:, None],
                  traces[e2, 1 - inner, :], vals[e2])
    vals[bnd] = (vals[e1] - wp[:, None] * m2) / w[:, None]
    return MidpointFlux(mesh, vals)
