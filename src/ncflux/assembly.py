"""Dof numbering, Dirichlet lifting and the sparse scatter, shared by box
and triangular meshes, and the element kernel of the box method.

Degrees of freedom are facet means (edge means on triangles). Dirichlet
data enters by lifting: boundary dofs are fixed to facet means of g and
their coupling columns are folded into the right-hand side, so the
assembled system only carries interior unknowns. Both mesh families
expose the same facet names (``nf``, ``elem_facets``, ``interior_facets``,
``boundary_facets``), so numbering, lifting and scatter exist once here;
only the element-local kernels (``assemble`` here, ``cr.assemble_cr``)
are mesh-specific.

Element loops are chunked so the (chunk, nq, dim, ndof) gradient
tensors stay small regardless of mesh size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elements import (BrokenRT, basis_gradients, basis_values,
                       cell_quadrature, facet_quadrature, nc_basis,
                       row_blocks, span_gradients, span_values)
from .mesh import TensorMesh, TriMesh
from .problems import Problem

CHUNK = 2048


@dataclass(frozen=True)
class DofMap:
    """Facet-based dof numbering: interior facets are unknowns."""

    mesh: TensorMesh | TriMesh
    unknown: np.ndarray          # (nf,) unknown index, -1 on the boundary
    interior: np.ndarray         # (n_unknown,) facet ids
    boundary: np.ndarray         # (nb,) facet ids

    @property
    def n_unknown(self) -> int:
        return self.interior.size


def dof_map(mesh: TensorMesh | TriMesh) -> DofMap:
    hit = mesh._cache.get("dof_map")
    if hit is None:
        unknown = np.full(mesh.nf, -1, dtype=np.int64)
        unknown[mesh.interior_facets] = np.arange(mesh.interior_facets.size)
        hit = DofMap(mesh=mesh, unknown=unknown,
                     interior=mesh.interior_facets,
                     boundary=mesh.boundary_facets)
        mesh._cache["dof_map"] = hit
    return hit


def boundary_means(mesh: TensorMesh, g) -> np.ndarray:
    """Facet means of g on boundary facets, ordered like boundary_facets."""
    pts, wts = facet_quadrature(mesh)
    b = mesh.boundary_facets
    vals = g(pts[b])
    return np.einsum("fq,fq->f", wts[b], vals) / mesh.facet_measure[b]


@dataclass
class LinearSystem:
    """Assembled interior system plus the boundary data it was lifted with."""

    mesh: TensorMesh | TriMesh
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    bc_values: np.ndarray        # per boundary facet, ordered like boundary

    def full_dofs(self, x: np.ndarray) -> np.ndarray:
        """Combine solved unknowns with boundary values into (nf,)."""
        full = np.empty(self.mesh.nf)
        full[self.dofmap.interior] = x
        full[self.dofmap.boundary] = self.bc_values
        return full


def lift_and_scatter(mesh: TensorMesh | TriMesh, bc_values: np.ndarray,
                     blocks) -> LinearSystem:
    """Lift boundary data out of element blocks and scatter the rest.

    blocks yields (facets, local, load) for consecutive blocks of
    elements: their facet ids (b, ndof), element matrices (b, ndof, ndof)
    and element loads (b, ndof). bc_values are ordered like
    boundary_facets. Triplets and right-hand-side entries are kept in
    element order, and the right-hand side is summed from zero in that
    order, so the result does not depend on the block size.
    """
    dm = dof_map(mesh)
    g_full = np.zeros(mesh.nf)
    g_full[dm.boundary] = bc_values

    ne, ndof = mesh.elem_facets.shape
    # COO triplets, at most ndof^2 per element; int32 ids are what scipy keeps
    data = np.empty(ndof * ndof * ne)
    ri = np.empty(ndof * ndof * ne, dtype=np.int32)
    ci = np.empty(ndof * ndof * ne, dtype=np.int32)
    load_ids = np.empty(ndof * ne, dtype=np.int32)
    load_vals = np.empty(ndof * ne)
    nnz = nload = 0
    for facets, local, load in blocks:
        load -= np.einsum("bij,bj->bi", local, g_full[facets])
        unk = dm.unknown[facets]
        r = np.repeat(unk, ndof, axis=1).ravel()
        c = np.tile(unk, (1, ndof)).ravel()
        keep = (r >= 0) & (c >= 0)
        end = nnz + np.count_nonzero(keep)
        data[nnz:end] = local.ravel()[keep]
        ri[nnz:end] = r[keep]
        ci[nnz:end] = c[keep]
        nnz = end
        rkeep = unk.ravel() >= 0
        end = nload + np.count_nonzero(rkeep)
        load_ids[nload:end] = unk.ravel()[rkeep]
        load_vals[nload:end] = load.ravel()[rkeep]
        nload = end

    n = dm.n_unknown
    matrix = sp.coo_matrix((data[:nnz], (ri[:nnz], ci[:nnz])),
                           shape=(n, n)).tocsr()
    rhs = np.bincount(load_ids[:nload], weights=load_vals[:nload],
                      minlength=n)
    return LinearSystem(mesh=mesh, matrix=matrix, rhs=rhs, dofmap=dm,
                        bc_values=bc_values)


def assemble(mesh: TensorMesh, problem: Problem) -> LinearSystem:
    """Assemble stiffness, convection, reaction, and load terms.

    All element integrals use the tensor Gauss rule of cell_quadrature.
    """
    if problem.dim != mesh.dim:
        raise ValueError(
            f"problem dimension {problem.dim} != mesh dimension {mesh.dim}")
    return lift_and_scatter(mesh, boundary_means(mesh, problem.boundary),
                            _local_blocks(mesh, problem))


def _local_blocks(mesh: TensorMesh, problem: Problem):
    tables = nc_basis(mesh, "mean")
    pts, wts = cell_quadrature(mesh)
    for blk in row_blocks(mesh.ne, CHUNK):
        p, w = pts[blk], wts[blk]
        phi = basis_values(tables, p, blk)             # (b, nq, ndof)
        gphi = basis_gradients(tables, p, blk)         # (b, nq, d, ndof)
        aval = problem.a(p)
        local = np.einsum("bq,bqdi,bqdj->bij", w * aval, gphi, gphi)
        if problem.b is not None:
            bdotg = np.einsum("bqd,bqdj->bqj", problem.b(p), gphi)
            local += np.einsum("bq,bqj,bqi->bij", w, bdotg, phi)
        if problem.c is not None:
            local += np.einsum("bq,bqj,bqi->bij", w * problem.c(p), phi, phi)
        load = np.einsum("bq,bqi->bi", w * problem.f(p), phi)
        yield mesh.elem_facets[blk], local, load


@dataclass
class NcrtField:
    """A scalar field in the nonconforming space, stored by facet dofs.

    coeffs holds the per-element monomial coefficients in the centered,
    scaled local frame of its basis tables.
    """

    mesh: TensorMesh
    dofs: np.ndarray             # (nf,)
    coeffs: np.ndarray           # (ne, nm)

    def values(self, pts: np.ndarray) -> np.ndarray:
        """Field values at element-local points (ne, nq, d) -> (ne, nq)."""
        tables = nc_basis(self.mesh)
        out = np.empty(pts.shape[:-1])
        for blk in row_blocks(self.mesh.ne, CHUNK):
            xi = tables.local_coords(pts[blk], blk)
            out[blk] = np.einsum("eqm,em->eq", span_values(xi),
                                 self.coeffs[blk])
        return out

    def gradients(self, pts: np.ndarray) -> np.ndarray:
        """Gradients at element-local points (ne, nq, d) -> (ne, nq, d)."""
        tables = nc_basis(self.mesh)
        out = np.empty(pts.shape)
        for blk in row_blocks(self.mesh.ne, CHUNK):
            xi = tables.local_coords(pts[blk], blk)
            g = span_gradients(xi, 1.0 / tables.scale[blk, None])
            out[blk] = np.einsum("eqdm,em->eqd", g, self.coeffs[blk])
        return out

    def values_at_centers(self) -> np.ndarray:
        # centered monomials all vanish at the center except the constant
        return self.coeffs[:, 0].copy()

    def gradients_at_centers(self) -> np.ndarray:
        tables = nc_basis(self.mesh)
        d = self.mesh.dim
        return self.coeffs[:, 1:d + 1] / tables.scale[:, None]

    def gradient_rt(self) -> BrokenRT:
        """The broken gradient, exactly represented component-wise."""
        mesh = self.mesh
        d = mesh.dim
        tables = nc_basis(mesh)
        s = tables.scale
        c = tables.center
        alpha = np.empty((mesh.ne, d))
        beta = np.empty((mesh.ne, d))
        quad = self.coeffs[:, d + 1:]                  # (ne, d-1)
        beta[:, 0] = 2.0 * quad.sum(axis=1) / s**2
        for k in range(1, d):
            beta[:, k] = -2.0 * quad[:, k - 1] / s**2
        alpha = self.coeffs[:, 1:d + 1] / s[:, None] - beta * c
        return BrokenRT(mesh, alpha, beta)


def reconstruct_field(mesh: TensorMesh, dofs: np.ndarray) -> NcrtField:
    """Build the element-wise polynomial representation from facet dofs."""
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (mesh.nf,):
        raise ValueError(f"expected {mesh.nf} dof values, got {dofs.shape}")
    tables = nc_basis(mesh)
    coeffs = np.einsum("emj,ej->em", tables.coeff, dofs[mesh.elem_facets])
    return NcrtField(mesh=mesh, dofs=dofs, coeffs=coeffs)
