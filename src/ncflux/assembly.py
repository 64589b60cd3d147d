"""Dof numbering, Dirichlet lifting and the sparse scatter, shared by box
and triangular meshes, and the element kernel of the box method.

Degrees of freedom are facet means (edge means on triangles). Dirichlet
data enters by lifting: boundary dofs are fixed to facet means of g and
their coupling columns are folded into the right-hand side, so the
assembled system only carries interior unknowns. Both mesh families
expose the same facet names (``nf``, ``elem_facets``, ``interior_facets``,
``boundary_facets``) and facet rule, so numbering, boundary means,
lifting and scatter exist once here; only the element-local kernels
(``assemble`` here, ``cr.assemble_cr``) are mesh-specific. The
unknowns are the interior facets in facet-id order; ``unknown_index``
maps a facet id to its unknown.

Box element loops run over blocks of ``elements.BLOCK_POINTS``
quadrature points of the data rule (``cell_blocks``: 3,640 cells of 9
points in 2d, 1,213 of 27 in 3d) and map the rule for one block at a
time, so the per-point arrays stay the same size whatever the mesh and
its dimension. The basis tables (``nc_basis``) are built for each block
too and not kept, and ``recovery`` and the box error norms of
``analysis`` take their blocks from the same budget. Each block asks
for its data, the boundary data g included, in one ``Problem.sample``
call, which checks them. The element kernel never forms basis
functions or gradients at the points: the stiffness, convection,
reaction and load are the cells' moments of the data
(``elements.cell_moments``) against fixed product tensors of the
span's monomials, and the basis tables map them to the dof basis as
coeff^T S coeff, all in matmuls per cell (Kirby, Knepley, Logg and
Scott, SIAM J. Sci. Comput. 27, 2005). All of these integrals, and the
boundary means, use the data rule ``elements.DATA_RULE``.

``preconditioner`` picks the map that preconditions a study's solve
(``sparse_solve.solve``) by the mesh's dimension.
``nested_dissection`` orders the unknowns of a box or triangular mesh
for the sparse LU that preconditions the 2d solve.
It cuts the boxes of centroid ranks of a tree depth all at once, stops a
box at ``ND_LEAF`` ranks or one cell, records each cell's sides of the
cuts in an int64 path (so at most 31 cuts) and sorts the unknowns once.
``coarse_levels`` builds the multigrid hierarchy that preconditions the
3d solve: the matrix re-assembled on ever coarser meshes
(``mesh.coarsen``), without load or boundary data, and the closed-form
``prolongation`` between neighboring levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import elements
from .elements import (DATA_RULE, BrokenRT, cell_blocks, cell_moments,
                       cell_quadrature, facet_blocks, facet_quadrature,
                       nc_basis, reference_coeffs, row_blocks,
                       span_polynomials, span_size)
from .mesh import TensorMesh, TriMesh, _by_columns, _cached, coarsen
from .problems import Problem
from .quadrature import monomial_exponents
from .sparse_solve import lu_preconditioner, multigrid


def unknown_index(mesh: TensorMesh | TriMesh) -> np.ndarray:
    """(nf,) unknown index of each facet: interior facets are the unknowns,
    in facet-id order; -1 on the boundary. Cached on the mesh, read-only."""
    def build():
        unknown = np.full(mesh.nf, -1, dtype=np.int64)
        unknown[mesh.interior_facets] = np.arange(mesh.interior_facets.size)
        return unknown
    return _cached(mesh, "unknown_index", build)


# Leaf size of nested_dissection as a rank-box volume, one for both mesh
# families: 16 box cells, or 8 triangles of a uniform mesh. Against 64-cell
# leaves the last ncrt2d factor's L+U holds 10.5M, not 12.0M, nonzeros.
ND_LEAF = 16
ND_MAX_CUTS = 31  # two bits a cut in a cell's int64 path


def nested_dissection(mesh: TensorMesh | TriMesh) -> np.ndarray:
    """Fill-reducing order of the unknowns of a mesh (George, 1973).

    Elements are ranked per axis among the distinct centroid coordinates
    (on boxes: the cell indices). Each box of ranks is cut at the middle
    of its longer side until it spans at most ND_LEAF ranks or holds at
    most one cell, and each cell's path keeps its sides (00 left, 01
    right). An unknown's key is its cells' shared path, with 10 at the
    cut that parts them, so one stable sort gives every box's left half,
    right half, then separator. Returns order, order[i] the unknown placed
    i-th; raises ValueError if the mesh needs more than ND_MAX_CUTS cuts.
    """
    rank = np.stack([np.unique(c, return_inverse=True)[1]
                     for c in mesh.elem_center.T])  # (d, ne)
    path = np.zeros(rank.shape[1], dtype=np.int64)
    # a depth's boxes as rank ranges [lo, hi), (d, boxes); cells, their box
    hi = rank.max(axis=1, keepdims=True) + 1
    lo = np.zeros_like(hi)
    cells, box = np.arange(path.size), np.zeros_like(path)
    for depth in range(ND_MAX_CUTS + 1):
        # only boxes still to cut are kept, renumbered in order
        keep = ((np.bincount(box, minlength=lo.shape[1]) > 1)
                & (np.prod(hi - lo, axis=0) > ND_LEAF))
        lo, hi, inside = lo[:, keep], hi[:, keep], keep[box]
        cells, box = cells[inside], (np.cumsum(keep) - 1)[box[inside]]
        if not cells.size:
            break
        if depth == ND_MAX_CUTS:
            raise ValueError(f"a mesh of {path.size} cells needs more than "
                             f"{ND_MAX_CUTS} nested-dissection cuts")
        every, k = np.arange(lo.shape[1]), np.argmax(hi - lo, axis=0)
        mid = (lo[k, every] + hi[k, every]) // 2
        right = rank[k[box], cells] >= mid[box]
        path[cells] |= right.astype(np.int64) << 2 * (ND_MAX_CUTS - 1 - depth)
        box = 2 * box + right  # both halves of every box, left first
        lo, hi = lo.repeat(2, axis=1), hi.repeat(2, axis=1)
        lo[k, 2 * every + 1] = hi[k, 2 * every] = mid

    a, b = path[mesh.facet_elems[mesh.interior_facets]].T
    apart = a ^ b
    # frexp's exponent of apart is the high bit of the parting cut's digit
    # (apart's highest bit set is its low bit). It is exact: apart's bits
    # sit at even positions only, so rounding to 53 bits never carries.
    high = np.frexp(apart.astype(np.float64))[1]
    return np.argsort(np.where(apart != 0, ((a >> high) | 1) << high, a),
                      kind="stable")


def boundary_means(mesh: TensorMesh | TriMesh,
                   problem: Problem) -> np.ndarray:
    """Facet means of the problem's boundary data g on the boundary
    facets of either mesh family, ordered like boundary_facets, by the
    data rule (``facet_quadrature``). g is sampled like every other
    datum, one ``Problem.sample`` call per block of ``facet_blocks``, so
    a constant g or u is broadcast and a wrong shape is named."""
    b = mesh.boundary_facets
    out = np.empty(b.size)
    for rows in facet_blocks(mesh, b.size):
        pts, wts = facet_quadrature(mesh, b[rows])
        vals = problem.sample(pts, ("g",))["g"]
        out[rows] = (np.einsum("fq,fq->f", wts, vals)
                     / mesh.facet_measure[b[rows]])
    return out


@dataclass
class LinearSystem:
    """Assembled interior system plus the boundary data it was lifted with."""

    mesh: TensorMesh | TriMesh
    matrix: sp.csr_matrix
    rhs: np.ndarray
    bc_values: np.ndarray        # ordered like mesh.boundary_facets

    def full_dofs(self, x: np.ndarray) -> np.ndarray:
        """Combine solved unknowns with boundary values into (nf,)."""
        full = np.empty(self.mesh.nf)
        full[self.mesh.interior_facets] = x
        full[self.mesh.boundary_facets] = self.bc_values
        return full


def lift_and_scatter(mesh: TensorMesh | TriMesh, bc_values: np.ndarray,
                     blocks) -> LinearSystem:
    """Lift boundary data out of element blocks and scatter the rest.

    blocks yields (facets, local, load) for consecutive blocks of
    elements: their facet ids (b, ndof), element matrices (b, ndof, ndof)
    and element loads (b, ndof). bc_values are ordered like
    boundary_facets. Right-hand-side entries are kept in element order,
    and the right-hand side is summed from zero in that order, so the
    result does not depend on the block size.
    """
    unknown = unknown_index(mesh)
    g_full = np.zeros(mesh.nf)
    g_full[mesh.boundary_facets] = bc_values

    ne, ndof = mesh.elem_facets.shape
    load_ids = np.empty(ndof * ne, dtype=np.int32)
    load_vals = np.empty(ndof * ne)
    nload = 0

    def lifted():
        nonlocal nload
        for facets, local, load in blocks:
            load -= np.einsum("bij,bj->bi", local, g_full[facets])
            unk = unknown[facets].ravel()
            keep = unk >= 0
            end = nload + np.count_nonzero(keep)
            load_ids[nload:end] = unk[keep]
            load_vals[nload:end] = load.ravel()[keep]
            nload = end
            yield facets, local

    matrix = scatter(mesh, lifted())
    rhs = np.bincount(load_ids[:nload], weights=load_vals[:nload],
                      minlength=mesh.interior_facets.size)
    return LinearSystem(mesh=mesh, matrix=matrix, rhs=rhs,
                        bc_values=bc_values)


def scatter(mesh: TensorMesh | TriMesh, blocks) -> sp.csr_matrix:
    """The interior matrix from blocks of (facets, local): facet ids
    (b, ndof) and element matrices (b, ndof, ndof) of consecutive
    element blocks. Triplets are kept in element order, so the result
    does not depend on the block size.
    """
    unknown = unknown_index(mesh)
    ne, ndof = mesh.elem_facets.shape
    # COO triplets, at most ndof^2 per element; int32 ids are what scipy keeps
    data = np.empty(ndof * ndof * ne)
    ri = np.empty(ndof * ndof * ne, dtype=np.int32)
    ci = np.empty(ndof * ndof * ne, dtype=np.int32)
    nnz = 0
    for facets, local in blocks:
        unk = unknown[facets]
        r = np.repeat(unk, ndof, axis=1).ravel()
        c = np.tile(unk, (1, ndof)).ravel()
        keep = (r >= 0) & (c >= 0)
        end = nnz + np.count_nonzero(keep)
        data[nnz:end] = local.ravel()[keep]
        ri[nnz:end] = r[keep]
        ci[nnz:end] = c[keep]
        nnz = end
    n = mesh.interior_facets.size
    matrix = sp.coo_matrix((data[:nnz], (ri[:nnz], ci[:nnz])),
                           shape=(n, n)).tocsr()
    del data, ri, ci
    # summing duplicates leaves views into storage sized for the triplets;
    # copied now that the triplets are freed, so each level holds only nnz
    matrix.data = matrix.data.copy()
    matrix.indices = matrix.indices.copy()
    return matrix


def assemble(mesh: TensorMesh, problem: Problem) -> LinearSystem:
    """Assemble stiffness, convection, reaction, and load terms.

    All element integrals and the boundary means use the data rule,
    ``elements.DATA_RULE``.
    """
    if problem.dim != mesh.dim:
        raise ValueError(
            f"problem dimension {problem.dim} != mesh dimension {mesh.dim}")
    return lift_and_scatter(mesh, boundary_means(mesh, problem),
                            _local_blocks(mesh, problem))


# Unknowns at or below which a multigrid hierarchy stops coarsening; its
# last level is solved by a sparse LU factor.
COARSEST_UNKNOWNS = 2000


def coarse_levels(mesh: TensorMesh, problem: Problem) -> list:
    """The multigrid hierarchy below mesh's system, finest first.

    Each level is (P, A_c): A_c the matrix of assemble on the mesh
    coarsened once more (``mesh.coarsen``), without load or boundary
    data, and P its prolongation to the level above. Coarsening stops
    at COARSEST_UNKNOWNS unknowns, so a small system has no levels.
    """
    levels = []
    while mesh.interior_facets.size > COARSEST_UNKNOWNS:
        fine, mesh = mesh, TensorMesh(coarsen(mesh.gridlines))
        matrix = scatter(mesh, _local_blocks(mesh, problem, load=False))
        levels.append((prolongation(mesh, fine), matrix))
    return levels


def preconditioner(system: LinearSystem, problem: Problem):
    """The preconditioner a study solves system with, by the mesh's
    dimension: on every 2d mesh, boxes and triangles, the float32 LU
    factor in nested-dissection order (``sparse_solve.lu_preconditioner``);
    on 3d boxes, one V-cycle over the level's own mesh, coarsened
    (``sparse_solve.multigrid`` over ``coarse_levels``), since the LU
    factor's fill grows too fast in 3d."""
    mesh = system.mesh
    if mesh.dim == 2:
        return lu_preconditioner(system.matrix, nested_dissection(mesh))
    return multigrid(system.matrix, coarse_levels(mesh, problem))


def prolongation(coarse: TensorMesh, fine: TensorMesh) -> sp.csr_matrix:
    """Coarse unknowns to fine unknowns, coarse on coarsen(fine.gridlines).

    A fine facet dof is the facet mean of the coarse cell's polynomial:
    of the coarse cell that holds both of the fine facet's cells, or half
    from each of the two coarse cells that hold them when the fine facet
    lies on a coarse facet. The means are in closed form, in the coarse
    cell's xi = x - center: over an axis-aligned facet the mean of xi_j
    is its value at the facet midpoint, and the mean of xi_j^2 is that
    value squared, plus L_j^2 / 12 on each axis j along the facet, L_j
    its length there. Times the coarse tables, built once for the whole
    coarse mesh, these give the weights of the coarse cell's dofs. Built
    a block of fine unknowns at a time; a row with two parent cells
    holds their shared coarse facet twice, and products with P add the two.
    """
    d = fine.dim
    coeff = nc_basis(coarse)
    interior, coarse_unknown = fine.interior_facets, unknown_index(coarse)
    # the coarse cell holding each fine cell: index // 2 on every axis
    parent = np.ravel_multi_index((fine.elem_index // 2).T, coarse.shape)
    nm = span_size(d)
    blocks = row_blocks(interior.size,
                        max(1, elements.BLOCK_POINTS // nm))

    def parent_dofs(facets):
        # the parent cells of each fine facet's two cells, and the
        # coarse unknowns of their facets (-1 past the first parent)
        parents = parent[fine.facet_elems[facets]]
        two = parents[:, 0] != parents[:, 1]
        cols = np.full((facets.size, 2, nm), -1)
        for side, sel in ((0, slice(None)), (1, two)):
            cols[sel, side] = coarse_unknown[
                coarse.elem_facets[parents[sel, side]]]
        return parents, two, cols

    # the row lengths first, so P is written in place a block at a time
    indptr = np.zeros(interior.size + 1, dtype=np.int32)
    for rows in blocks:
        cols = parent_dofs(interior[rows])[2]
        indptr[rows.start + 1:rows.stop + 1] = (cols >= 0).sum(axis=(1, 2))
    np.cumsum(indptr, out=indptr)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for rows in blocks:
        facets = interior[rows]
        parents, two, cols = parent_dofs(facets)
        along = np.arange(d) != fine.facet_axis[facets, None]
        length = np.where(along, fine.elem_ext[fine.facet_elems[facets, 0]],
                          0.0)
        vals = np.zeros(cols.shape)
        for side, sel in ((0, slice(None)), (1, two)):
            K = parents[sel, side]
            xi = fine.facet_midpoint[facets[sel]] - coarse.elem_center[K]
            sq = xi * xi + length[sel] ** 2 / 12.0
            means = np.empty((K.size, nm))
            means[:, 0] = np.where(two[sel], 0.5, 1.0)
            means[:, 1:d + 1] = xi
            means[:, d + 1:] = sq[:, :1] - sq[:, 1:]
            means[:, 1:] *= means[:, :1]
            vals[sel, side] = (means[:, None, :] @ coeff[K])[:, 0]
        keep = cols >= 0
        span = slice(indptr[rows.start], indptr[rows.stop])
        data[span] = vals[keep]
        indices[span] = cols[keep]
    return sp.csr_matrix((data, indices, indptr),
                         shape=(interior.size, coarse.interior_facets.size))


def _poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            k = tuple(i + j for i, j in zip(a, b))
            out[k] = out.get(k, 0.0) + x * y
    return out


def _poly_diff(p: dict, j: int) -> dict:
    return {a[:j] + (a[j] - 1,) + a[j + 1:]: a[j] * x
            for a, x in p.items() if a[j]}


@lru_cache(maxsize=None)
def _product_tensors(dim: int):
    """The element integrands in the monomial basis of the span, as fixed
    tensors over the exponents alpha of monomial_exponents(dim, 4).

    With xi-moments M[alpha] of the data, a monomial-basis element matrix
    is sum_alpha M[alpha] T[alpha, m, n], and the load sum_alpha M[alpha]
    T[alpha, m]: stiffness grad_xi m . grad_xi n, convection m d_j n (one
    tensor per component j of b), reaction m n and load m. Read-only.
    """
    index = {tuple(a): i for i, a in
             enumerate(monomial_exponents(dim, 4).tolist())}
    span = span_polynomials(dim)
    nm = len(span)
    grads = [[_poly_diff(m, j) for j in range(dim)] for m in span]

    def tensor(poly_of, shape):
        out = np.zeros((len(index),) + shape)
        for pos in np.ndindex(*shape):
            for a, x in poly_of(*pos).items():
                out[(index[a],) + pos] += x
        out.setflags(write=False)
        return out

    def stiffness(m, n):
        total = {}
        for j in range(dim):
            for a, x in _poly_mul(grads[m][j], grads[n][j]).items():
                total[a] = total.get(a, 0.0) + x
        return total

    convection = [tensor(lambda m, n, j=j: _poly_mul(span[m], grads[n][j]),
                         (nm, nm)) for j in range(dim)]
    return (tensor(stiffness, (nm, nm)), convection,
            tensor(lambda m, n: _poly_mul(span[m], span[n]), (nm, nm)),
            tensor(lambda m: span[m], (nm,)))


def _local_blocks(mesh: TensorMesh, problem: Problem, load: bool = True):
    # every element integral is the cell's moments of its data against a
    # fixed product tensor (a monomial-basis matrix), mapped to the dof
    # basis as coeff^T S coeff; all products are batched matmuls per cell.
    # Yields (facets, local, load), or (facets, local) without the load.
    d = mesh.dim
    stiff, conv, react, load_t = _product_tensors(d)
    # the data rows: a, then b's components, then c; the load f last
    terms = ([stiff] + (conv if problem.b is not None else [])
             + ([react] if problem.c is not None else []))
    nt = len(terms)
    # the highest degree of the integrands: a grad.grad 2, b m grad 3, c m m 4
    degree = 4 if problem.c is not None else 3 if problem.b is not None else 2
    na = monomial_exponents(d, degree).shape[0]
    nm = stiff.shape[1]
    products = np.concatenate([t[:na].reshape(na, nm * nm) for t in terms])
    load_t = load_t[:na]
    for blk in cell_blocks(mesh, DATA_RULE):
        p, _ = cell_quadrature(mesh, blk, DATA_RULE)
        n, nq = p.shape[:2]
        sampled = problem.sample(p, ("a", "b", "c") + ("f",) * load)
        data = np.empty((n, nt + load, nq))
        data[:, 0] = sampled["a"]
        if "b" in sampled:
            data[:, 1:d + 1] = sampled["b"].transpose(0, 2, 1)
        if "c" in sampled:
            data[:, nt - 1] = sampled["c"]
        if load:
            data[:, nt] = sampled["f"]
        moments = cell_moments(mesh, data, blk, degree, DATA_RULE)
        mono = (moments[:, :nt].reshape(n, 1, -1) @ products).reshape(
            n, nm, nm)
        coeff = nc_basis(mesh, "mean", blk)
        local = coeff.transpose(0, 2, 1) @ mono @ coeff
        if not load:
            yield mesh.elem_facets[blk], local
            continue
        rhs = (moments[:, nt:] @ load_t @ coeff)[:, 0]
        yield mesh.elem_facets[blk], local, rhs


@dataclass
class NcrtField:
    """A scalar field in the nonconforming space, stored by facet dofs.

    coeffs holds the per-element span coefficients in the cell's
    centered coordinates xi = x - elem_center.
    """

    mesh: TensorMesh
    dofs: np.ndarray             # (nf,)
    coeffs: np.ndarray           # (ne, nm)

    def reference_coeffs(self, rows=slice(None)) -> np.ndarray:
        """Coefficients in the reference monomials of the cells rows:
        (b, 2d + 1), see ``elements.reference_coeffs``."""
        return reference_coeffs(self.mesh, self.coeffs[rows], rows)

    def values_at_centers(self) -> np.ndarray:
        # centered monomials all vanish at the center except the constant
        return self.coeffs[:, 0].copy()

    def gradients_at_centers(self) -> np.ndarray:
        return self.coeffs[:, 1:self.mesh.dim + 1].copy()

    def gradient_rt(self) -> BrokenRT:
        """The broken gradient, exactly represented component-wise."""
        mesh = self.mesh
        d = mesh.dim
        beta = np.empty((mesh.ne, d))
        quad = self.coeffs[:, d + 1:]                  # (ne, d-1)
        beta[:, 0] = 2.0 * _by_columns(np.add, quad)
        beta[:, 1:] = -2.0 * quad
        alpha = self.coeffs[:, 1:d + 1] - beta * mesh.elem_center
        return BrokenRT(mesh, alpha, beta)


def reconstruct_field(mesh: TensorMesh, dofs: np.ndarray) -> NcrtField:
    """Build the element-wise polynomial representation from facet dofs."""
    dofs = np.asarray(dofs, dtype=float)
    if dofs.shape != (mesh.nf,):
        raise ValueError(f"expected {mesh.nf} dof values, got {dofs.shape}")
    coeffs = np.empty((mesh.ne, span_size(mesh.dim)))
    for blk in cell_blocks(mesh):
        coeffs[blk] = np.einsum("emj,ej->em", nc_basis(mesh, "mean", blk),
                                dofs[mesh.elem_facets[blk]])
    return NcrtField(mesh=mesh, dofs=dofs, coeffs=coeffs)
