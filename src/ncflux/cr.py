"""Midpoint-linear triangular elements with flux correction and averaging.

The triangular pipeline is the box one with triangle kernels: solve with
the midpoint-continuous linear element, correct the piecewise-constant
flux with a divergence-one radial field so its normal components match
across edges, then average to edge midpoints (order-two recovery on
meshes where neighboring triangles form parallelograms) or to vertices
(a cheaper variant of lower order). A TriMesh uses TensorMesh's element
and facet names, its facets being the edges, so dof numbering, Dirichlet
lifting and the sparse scatter are the box ones in ``ncflux.assembly``:
``assemble_cr`` only supplies the element blocks and returns the same
``LinearSystem`` as ``assemble``.

Work at quadrature points is done a block of triangles (or edges) at a
time, so its memory stays bounded as the mesh grows; evaluators take the
points of one block and the block's ``rows`` (all triangles by default).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import LinearSystem, finite, lift_and_scatter
from .elements import (BrokenRT, cr_barycentrics, cr_basis, cr_values,
                       edge_quadrature, row_blocks, tri_quadrature)
from .mesh import TriMesh
from .problems import Problem


def boundary_edge_means(trimesh: TriMesh, g) -> np.ndarray:
    """Edge means of g on boundary edges, ordered like boundary_facets."""
    b = trimesh.boundary_facets
    pts, wts = edge_quadrature(trimesh, b)
    vals = finite("g", g(pts), pts)
    return np.einsum("eq,eq->e", wts, vals) / trimesh.facet_measure[b]


def assemble_cr(trimesh: TriMesh, problem: Problem) -> LinearSystem:
    """Assemble the triangular nonconforming system with Dirichlet lifting."""
    if problem.dim != 2:
        raise ValueError("triangular meshes are two-dimensional")
    return lift_and_scatter(trimesh,
                            boundary_edge_means(trimesh, problem.boundary),
                            _local_blocks(trimesh, problem))


def _local_blocks(trimesh: TriMesh, problem: Problem):
    for rows in row_blocks(trimesh.ne):
        tables = cr_basis(trimesh, rows)
        pts, wts = tri_quadrature(trimesh, rows)
        phi = cr_values(tables, pts)                   # (ne, nq, 3)
        gphi = tables.grad                             # (ne, 2, 3), constant

        # one matmul per triangle keeps the bits independent of the block
        aint = (wts[:, None, :]
                @ finite("a", problem.a(pts), pts)[:, :, None])[:, 0]
        local = aint[:, :, None] * (gphi.transpose(0, 2, 1) @ gphi)
        wphi_t = (phi * wts[:, :, None]).transpose(0, 2, 1)   # (ne, 3, nq)
        if problem.b is not None:
            local += wphi_t @ (finite("b", problem.b(pts), pts) @ gphi)
        if problem.c is not None:
            local += (wphi_t * finite("c", problem.c(pts), pts)[:, None, :]
                      ) @ phi
        fvals = finite("f", problem.f(pts), pts)
        load = (wphi_t @ fvals[:, :, None])[:, :, 0]
        yield trimesh.elem_facets[rows], local, load


@dataclass
class CRField:
    """Scalar field in the triangular nonconforming space, one dof per edge."""

    trimesh: TriMesh
    dofs: np.ndarray             # (nf,)
    _gradients: np.ndarray | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False)

    def eval_at(self, pts: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Values at points (ne, nq, 2) of the triangles rows -> (ne, nq)."""
        tables = cr_basis(self.trimesh, rows)
        local = self.dofs[self.trimesh.elem_facets[rows]]
        return (cr_values(tables, pts) @ local[:, :, None])[:, :, 0]

    def gradients(self) -> np.ndarray:
        """Constant per-triangle gradients, shape (ne, 2), read-only.

        Computed on the first call and kept: a level reads them for the
        raw flux and again for the correction.
        """
        if self._gradients is None:
            tm = self.trimesh
            out = np.empty((tm.ne, 2))
            for rows in row_blocks(tm.ne):
                local = self.dofs[tm.elem_facets[rows]]
                grad = cr_basis(tm, rows).grad
                out[rows] = (grad @ local[:, :, None])[:, :, 0]
            out.setflags(write=False)
            self._gradients = out
        return self._gradients


@dataclass
class RawFlux:
    """Raw discrete flux a grad u_h: a pointwise times the broken gradient.

    grad holds constant per-element gradients (ne, d) or is a field with
    eval_at(pts, rows), such as NcrtField.gradient_rt().
    """

    a: Callable
    grad: np.ndarray | BrokenRT

    def eval_at(self, pts: np.ndarray, rows=slice(None)) -> np.ndarray:
        grad = self.grad
        if isinstance(grad, np.ndarray):
            grad = grad[rows, None, :]
        else:
            grad = grad.eval_at(pts, rows)
        return self.a(pts)[..., None] * grad


def cell_means(trimesh: TriMesh, func) -> np.ndarray:
    """Triangle means of a scalar function, shape (ne,)."""
    out = np.empty(trimesh.ne)
    for rows in row_blocks(trimesh.ne):
        pts, wts = tri_quadrature(trimesh, rows)
        out[rows] = np.einsum("tq,tq->t", wts, func(pts))
    return out / trimesh.elem_measure


def edge_normals(trimesh: TriMesh) -> np.ndarray:
    """Global unit normals, one fixed orientation per edge."""
    hit = trimesh._cache.get("edge_normals")
    if hit is None:
        v = trimesh.vertices
        evec = v[trimesh.edges[:, 1]] - v[trimesh.edges[:, 0]]
        hit = (np.stack([evec[:, 1], -evec[:, 0]], axis=1)
               / trimesh.facet_measure[:, None])
        hit.setflags(write=False)
        trimesh._cache["edge_normals"] = hit
    return hit


@dataclass
class TriRT:
    """Per-triangle flux polynomial const + slope * (x - center).

    The normal component is constant along each edge, so midpoint traces
    determine the normal jumps exactly.
    """

    trimesh: TriMesh
    const: np.ndarray            # (ne, 2), the value at the centroid
    slope: np.ndarray            # (ne,)

    def eval_at(self, pts: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Values at points (ne, nq, 2) of triangles rows -> (ne, nq, 2)."""
        rel = pts - self.trimesh.elem_center[rows, None, :]
        return (self.const[rows, None, :]
                + self.slope[rows, None, None] * rel)

    def __sub__(self, other: "TriRT") -> "TriRT":
        return TriRT(self.trimesh, self.const - other.const,
                     self.slope - other.slope)

    def divergence(self) -> np.ndarray:
        return 2.0 * self.slope

    def trace_at_mid(self, tris: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Full-vector traces from given triangles at given edge midpoints."""
        tm = self.trimesh
        rel = tm.facet_midpoint[edges] - tm.elem_center[tris]
        return self.const[tris] + self.slope[tris, None] * rel


def corrected_flux_cr(field: CRField, problem: Problem) -> TriRT:
    """Continuity-corrected flux of a triangular nonconforming solution.

    The mean diffusion coefficient scales the broken gradient; the
    radial field (x - x_K)/2 times the mean residual load restores
    normal continuity across edges.
    """
    tm = field.trimesh
    grad = field.gradients()
    abar = cell_means(tm, problem.a)
    const = abar[:, None] * grad

    pbar = np.empty(tm.ne)
    for rows in row_blocks(tm.ne):
        pts, wts = tri_quadrature(tm, rows)
        pv = problem.f(pts)
        if problem.b is not None:
            pv = pv - (problem.b(pts) @ grad[rows, :, None])[:, :, 0]
        if problem.c is not None:
            pv = pv - problem.c(pts) * field.eval_at(pts, rows)
        pbar[rows] = np.einsum("tq,tq->t", wts, pv)
    pbar /= tm.elem_measure
    return TriRT(tm, const=const, slope=-0.5 * pbar)


def rt_interpolate_tri(trimesh: TriMesh, vec) -> TriRT:
    """Canonical edge-flux interpolant of a continuous vector field.

    Matches the edge integrals of the normal component; one 3x3 system
    per triangle recovers the (const, slope) representation.
    """
    n = edge_normals(trimesh)
    dofs = np.empty(trimesh.nf)
    for rows in row_blocks(trimesh.nf):
        pts, wts = edge_quadrature(trimesh, rows)
        normal_comp = np.einsum("eqd,ed->eq", vec(pts), n[rows])
        dofs[rows] = np.einsum("eq,eq->e", wts, normal_comp)

    sol = np.empty((trimesh.ne, 3))
    for rows in row_blocks(trimesh.ne):
        te = trimesh.elem_facets[rows]
        ln = trimesh.facet_measure[te]                 # (ne, 3)
        nn = n[te]                                     # (ne, 3, 2)
        rel = trimesh.facet_midpoint[te] - trimesh.elem_center[rows, None, :]
        A = np.empty(te.shape + (3,))
        A[:, :, :2] = ln[:, :, None] * nn
        A[:, :, 2] = ln * np.einsum("tjd,tjd->tj", rel, nn)
        sol[rows] = np.linalg.solve(A, dofs[te][:, :, None])[:, :, 0]
    return TriRT(trimesh, const=sol[:, :2], slope=sol[:, 2])


def max_normal_jump_tri(flux: TriRT) -> float:
    """Largest normal-component jump over interior edges."""
    tm = flux.trimesh
    inter = tm.interior_facets
    if inter.size == 0:
        return 0.0
    n = edge_normals(tm)[inter]
    lo = flux.trace_at_mid(tm.facet_elems[inter, 0], inter)
    hi = flux.trace_at_mid(tm.facet_elems[inter, 1], inter)
    return float(np.abs(np.einsum("ed,ed->e", hi - lo, n)).max())


@dataclass
class EdgeMidpointField:
    """Vector field with one value per edge midpoint.

    Componentwise it lives in the midpoint-linear space, so values
    anywhere come from the triangle's three edge basis functions.
    """

    trimesh: TriMesh
    values: np.ndarray           # (nf, 2)

    def eval_at(self, pts: np.ndarray, rows=slice(None)) -> np.ndarray:
        phi = cr_values(cr_basis(self.trimesh, rows), pts)
        local = self.values[self.trimesh.elem_facets[rows]]  # (ne, 3, 2)
        return phi @ local


@dataclass
class VertexField:
    """Continuous piecewise-linear vector field stored by vertex values."""

    trimesh: TriMesh
    values: np.ndarray           # (nv, 2)

    def eval_at(self, pts: np.ndarray, rows=slice(None)) -> np.ndarray:
        lam = cr_barycentrics(cr_basis(self.trimesh, rows), pts)
        return lam @ self.values[self.trimesh.triangles[rows]]


def _side_traces(trimesh: TriMesh, field) -> np.ndarray:
    """Per-side traces at edge midpoints, (nf, 2, 2); absent sides zero."""
    out = np.zeros((trimesh.nf, 2, 2))
    eid = np.arange(trimesh.nf)
    for side in (0, 1):
        t = trimesh.facet_elems[:, side]
        ok = t >= 0
        if isinstance(field, TriRT):
            out[ok, side, :] = field.trace_at_mid(t[ok], eid[ok])
        else:
            out[ok, side, :] = np.asarray(field)[t[ok]]
    return out


def edge_midpoint_average(trimesh: TriMesh, field) -> EdgeMidpointField:
    """Average an element-wise flux into edge-midpoint values.

    field is either a piecewise-constant array (ne, 2) or a TriRT.
    Interior midpoints take the plain mean of the two one-sided traces.
    Each boundary midpoint m is filled by extrapolation,

        value(m) = 2 value(m') - value(m''),

    where m' is the midpoint of an interior edge E' of the boundary
    triangle whose neighbor K' has an edge parallel to E, and m'' is the
    midpoint of that parallel edge; among candidates the parallel edge
    with midpoint closest to m wins. When the parallel edge lies on the
    boundary its one-sided trace from K' substitutes for value(m''), and
    a triangle with no candidate at all falls back to its own trace at m.
    """
    traces = _side_traces(trimesh, field)
    vals = np.empty((trimesh.nf, 2))
    inter = trimesh.interior_facets
    vals[inter] = 0.5 * (traces[inter, 0, :] + traces[inter, 1, :])

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

    # the lexicographically least candidate; no candidate keeps the own trace
    shape = (e.size, 6)
    keys = [np.broadcast_to(k, epp.shape).reshape(shape)
            for k in (nb[:, :, None], ep[:, :, None], epp,
                      np.where(ok, d2, np.inf))]
    pick = np.lexsort(keys, axis=-1)[:, 0]
    best = np.arange(e.size), pick
    found = ok.reshape(shape)[best]
    nb, ep, epp = (k[best][found] for k in keys[:3])
    side = (trimesh.facet_elems[epp, 0] != nb).astype(int)
    m2 = np.where(trimesh.facet_boundary[epp][:, None],
                  traces[epp, side, :], vals[epp])
    vals[e] = traces[e, 0, :]
    vals[e[found]] = 2.0 * vals[ep] - m2
    return EdgeMidpointField(trimesh, vals)


def vertex_average(trimesh: TriMesh, cellvals: np.ndarray) -> VertexField:
    """Area-weighted average of per-triangle values onto vertices.

    Each vertex takes sum_K |K| value_K / sum_K |K| over the triangles
    of its patch; the result is a continuous piecewise-linear field.
    """
    cellvals = np.asarray(cellvals, dtype=float)
    flat = trimesh.triangles.ravel()
    weighted = np.repeat(cellvals * trimesh.elem_measure[:, None], 3, axis=0)
    num = np.stack([np.bincount(flat, weights=weighted[:, k],
                                minlength=trimesh.nv) for k in (0, 1)],
                   axis=1)
    den = np.bincount(flat, weights=np.repeat(trimesh.elem_measure, 3),
                      minlength=trimesh.nv)
    return VertexField(trimesh, num / den[:, None])
