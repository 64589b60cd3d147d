"""Midpoint-linear triangular elements with flux correction and averaging.

The triangular pipeline is the box one with triangle kernels: solve with
the midpoint-continuous linear element, correct the piecewise-constant
flux with the divergence-one field (x - x_K)/2 so its normal components
match across edges, then average to edge midpoints (order-two recovery
on meshes where neighboring triangles form parallelograms) or to
vertices (a cheaper variant of lower order). A TriMesh uses TensorMesh's
element and facet names, its facets being the edges, so dof numbering,
boundary means, Dirichlet lifting and the sparse scatter are the box
ones in ``ncflux.assembly``: ``assemble_cr`` only supplies the element
blocks and returns the same ``LinearSystem`` as ``assemble``.

Fluxes are the box ones too. The lowest-order Raviart-Thomas field on a
triangle, a + b x with one scalar b, is an ``elements.BrokenRT`` with
beta = (b, b) (Raviart and Thomas, LNM 606, 1977): the broken gradient
(``CRField.gradient_rt``), the corrected flux and the edge-flux
interpolant are all BrokenRT, so ``recovery.correction_field`` and
``recovery.max_normal_jump`` serve triangles as they serve boxes, and
the interpolant matches the edge fluxes of ``recovery.facet_fluxes``.
Both averages take the corrected flux, as ``recovery.midpoint_average``
does, and the edge average returns the same ``recovery.MidpointFlux``.

So are the cell passes: they loop over ``elements.cell_blocks`` and
map ``elements.cell_quadrature``, as the box passes do. At the
triangle rule's points the basis values are one constant table
(``elements.cell_table``): assembly, the correction's load and the
error norms (through ``reference_coeffs``) read it, and only the
constant gradients come from ``cr_basis``. Every field on triangles
gives its values at each triangle's edge midpoints as its reference
coefficients, and none is evaluated at arbitrary points.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .assembly import LinearSystem, boundary_means, lift_and_scatter
from .elements import (BrokenRT, cell_blocks, cell_quadrature, cell_table,
                       cr_basis, reference_values)
from .mesh import TriMesh, _by_columns, _frozen
from .problems import Problem
from .recovery import MidpointFlux, correction_field, facet_fluxes


def assemble_cr(trimesh: TriMesh, problem: Problem) -> LinearSystem:
    """Assemble the triangular nonconforming system with Dirichlet lifting."""
    if problem.dim != 2:
        raise ValueError("triangular meshes are two-dimensional")
    return lift_and_scatter(trimesh, boundary_means(trimesh, problem),
                            _local_blocks(trimesh, problem))


def _local_blocks(trimesh: TriMesh, problem: Problem):
    table = cell_table(trimesh)                        # (3, nq)
    for rows in cell_blocks(trimesh):
        gphi = cr_basis(trimesh, rows)                 # (ne, 2, 3), constant
        pts, wts = cell_quadrature(trimesh, rows)
        data = problem.sample(pts, ("a", "b", "c", "f"))

        # one matmul per triangle keeps the bits independent of the block
        aint = (wts[:, None, :] @ data["a"][:, :, None])[:, 0]
        local = aint[:, :, None] * (gphi.transpose(0, 2, 1) @ gphi)
        wphi_t = wts[:, None, :] * table               # (ne, 3, nq)
        if "b" in data:
            local += wphi_t @ (data["b"] @ gphi)
        if "c" in data:
            local += (wphi_t * data["c"][:, None, :]) @ table.T
        load = (wphi_t @ data["f"][:, :, None])[:, :, 0]
        yield trimesh.elem_facets[rows], local, load


@dataclass
class CRField:
    """Scalar field in the triangular nonconforming space, one dof per edge."""

    trimesh: TriMesh
    dofs: np.ndarray             # (nf,)
    _gradient: BrokenRT | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def reference_coeffs(self, rows=slice(None)) -> np.ndarray:
        """The local dofs of the triangles rows, (b, 3): times
        ``elements.cell_table`` they are the values at the mapped
        triangle rule."""
        return self.dofs[self.trimesh.elem_facets[rows]]

    def gradient_rt(self) -> BrokenRT:
        """The broken gradient, constant per triangle: a BrokenRT with
        beta = 0, its arrays read-only.

        Computed on the first call and kept: a level reads it for the
        raw flux and again for the correction.
        """
        if self._gradient is None:
            tm = self.trimesh
            out = np.empty((tm.ne, 2))
            for rows in cell_blocks(tm):
                local = self.dofs[tm.elem_facets[rows]]
                grad = cr_basis(tm, rows)
                out[rows] = (grad @ local[:, :, None])[:, :, 0]
            self._gradient = BrokenRT(tm, _frozen(out),
                                      _frozen(np.zeros_like(out)))
        return self._gradient


def corrected_flux_cr(field: CRField, problem: Problem) -> BrokenRT:
    """Continuity-corrected flux of a triangular nonconforming solution.

    The mean diffusion coefficient scales the broken gradient; the
    correction field (x - x_K)/2 times the mean residual load restores
    normal continuity across edges.
    """
    tm = field.trimesh
    grad = field.gradient_rt()
    table = cell_table(tm)
    abar, pbar = np.empty(tm.ne), np.empty(tm.ne)
    for rows in cell_blocks(tm):
        pts, wts = cell_quadrature(tm, rows)
        data = problem.sample(pts, ("a", "b", "c", "f"))
        abar[rows] = np.einsum("tq,tq->t", wts, data["a"])
        pv = data["f"]
        if "b" in data:
            pv = pv - (data["b"] @ grad.alpha[rows, :, None])[:, :, 0]
        if "c" in data:
            pv = pv - data["c"] * reference_values(
                field.reference_coeffs(rows), table)
        pbar[rows] = np.einsum("tq,tq->t", wts, pv)
    return (grad.scaled_by(abar / tm.elem_measure)
            - correction_field(tm).scaled_by(pbar / tm.elem_measure))


def rt_interpolate_tri(trimesh: TriMesh, vec) -> BrokenRT:
    """Canonical edge-flux interpolant of a continuous vector field.

    Matches the edge integrals of the normal component
    (``recovery.facet_fluxes``). With F_i the outward flux through the
    edge opposite vertex p_i of a triangle T, the field is
    sum_i F_i (x - p_i) / 2|T|: slope sum_i F_i / 2|T| and value
    sum_i F_i (c - p_i) / 2|T| at the centroid c. An edge's normal
    (``facet_normal``) points out of T when T's counterclockwise order
    runs along the edge from its lower to its higher vertex id.
    """
    flux = facet_fluxes(trimesh, vec)
    tri = trimesh.triangles
    outward = np.where(tri[:, [1, 2, 0]] < tri[:, [2, 0, 1]], 1.0, -1.0)
    F = outward * flux[trimesh.elem_facets]                # (ne, 3)
    twice = 2.0 * trimesh.elem_measure
    center = trimesh.elem_center
    slope = _by_columns(np.add, F) / twice
    # c - p_i, (ne, 2, 3)
    rel = center[:, :, None] - trimesh.vertices[tri].transpose(0, 2, 1)
    value = _by_columns(np.add, F[:, None, :] * rel) / twice[:, None]
    return BrokenRT(trimesh, alpha=value - slope[:, None] * center,
                    beta=np.repeat(slope[:, None], 2, axis=1))


@dataclass
class VertexField:
    """Continuous piecewise-linear vector field stored by vertex values."""

    trimesh: TriMesh
    values: np.ndarray           # (nv, 2)

    def reference_coeffs(self, rows=slice(None)) -> np.ndarray:
        """The components' values at the edge midpoints of the triangles
        rows, (b, 2, 3), for ``elements.cell_table``: a linear field lies
        in the midpoint-linear space, and at the midpoint of the edge
        opposite vertex j it is the mean of the other two vertex values."""
        v = self.values[self.trimesh.triangles[rows]]       # (b, 3, 2)
        return 0.5 * (v[:, [1, 2, 0]] + v[:, [2, 0, 1]]).transpose(0, 2, 1)


def edge_midpoint_average(flux: BrokenRT) -> MidpointFlux:
    """Average a corrected triangle flux into edge-midpoint values.

    It reads the flux's centroid values (``BrokenRT.values_at_centers``),
    not its midpoint traces: on parallel neighbors the two traces of its
    radial part cancel at the shared midpoint. Interior midpoints take
    the plain mean of the two triangles' values. Each boundary midpoint
    m is filled by extrapolation,

        value(m) = 2 value(m') - value(m''),

    where m' is the midpoint of an interior edge E' of the boundary
    triangle whose neighbor K' has an edge parallel to E, and m'' is the
    midpoint of that parallel edge; among candidates the parallel edge
    with midpoint closest to m wins. When the parallel edge lies on the
    boundary the value of K' substitutes for value(m''), and a triangle
    with no candidate at all falls back to its own value.
    """
    trimesh = flux.mesh
    cellvals = flux.values_at_centers()
    vals = np.empty((trimesh.nf, 2))
    inter = trimesh.interior_facets
    sides = cellvals[trimesh.facet_elems[inter]]
    vals[inter] = 0.5 * (sides[:, 0, :] + sides[:, 1, :])

    # the candidates (d2, epp, ep, nb) of the boundary edges e, as
    # (boundary edges, 2, 3) arrays: the two other edges ep of e's
    # triangle, times the edges epp of the neighbor nb across ep
    e = trimesh.boundary_facets
    tri = trimesh.facet_elems[e, 0]
    own = trimesh.elem_facets[tri]
    ep = own[own != e[:, None]].reshape(-1, 2)
    pair = trimesh.facet_elems[ep]
    nb = np.where(pair[..., 0] == tri[:, None], pair[..., 1], pair[..., 0])
    epp = trimesh.elem_facets[nb]      # nb = -1 (ep on the boundary) is masked
    v = trimesh.vertices
    edir = v[trimesh.edges[:, 1]] - v[trimesh.edges[:, 0]]
    ln = trimesh.facet_measure
    e3 = e[:, None, None]
    cross = edir[e3, 0] * edir[epp, 1] - edir[e3, 1] * edir[epp, 0]
    ok = ((np.abs(cross) <= 1e-12 * ln[e3] * ln[epp])
          & ~trimesh.facet_boundary[ep][:, :, None])
    mid = trimesh.facet_midpoint
    d2 = ((mid[epp] - mid[e3]) ** 2).sum(axis=-1)

    # the lexicographically least candidate; no candidate keeps the own value
    shape = (e.size, 6)
    keys = [np.broadcast_to(k, epp.shape).reshape(shape)
            for k in (nb[:, :, None], ep[:, :, None], epp,
                      np.where(ok, d2, np.inf))]
    pick = np.lexsort(keys, axis=-1)[:, 0]
    best = np.arange(e.size), pick
    found = ok.reshape(shape)[best]
    nb, ep, epp = (k[best][found] for k in keys[:3])
    m2 = np.where(trimesh.facet_boundary[epp][:, None], cellvals[nb],
                  vals[epp])
    vals[e] = cellvals[tri]
    vals[e[found]] = 2.0 * vals[ep] - m2
    return MidpointFlux(trimesh, vals)


def vertex_average(flux: BrokenRT) -> VertexField:
    """Area-weighted average of a triangle flux onto vertices.

    Each vertex takes sum_K |K| value_K / sum_K |K| over the triangles
    of its patch, value_K the flux's centroid value; the result is a
    continuous piecewise-linear field.
    """
    trimesh = flux.mesh
    cellvals = flux.values_at_centers()
    flat = trimesh.triangles.ravel()
    weighted = np.repeat(cellvals * trimesh.elem_measure[:, None], 3, axis=0)
    num = np.stack([np.bincount(flat, weights=weighted[:, k],
                                minlength=trimesh.nv) for k in (0, 1)],
                   axis=1)
    den = np.bincount(flat, weights=np.repeat(trimesh.elem_measure, 3),
                      minlength=trimesh.nv)
    return VertexField(trimesh, num / den[:, None])
