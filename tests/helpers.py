"""Shared factories for the test suite."""

import tracemalloc

import numpy as np
from hypothesis import strategies as st

from ncflux.assembly import assemble, reconstruct_field
from ncflux.cr import CRField, EdgeMidpointField, assemble_cr
from ncflux.elements import (cell_blocks, cell_quadrature, row_blocks,
                             span_size, span_values, tri_quadrature)
from ncflux.mesh import build_tensor_mesh, perturb, refine_midpoint
from ncflux.problems import custom_problem
from ncflux.quadrature import tensor_rule
from ncflux.recovery import _projection
from ncflux.sparse_solve import solve


def zeros_scalar(x):
    return np.zeros(x.shape[:-1])


def zeros_vector(x):
    return np.zeros(x.shape)


def ones_scalar(x):
    return np.ones(x.shape[:-1])


def linear_problem(dim, coef=None, const=0.0, gridlines=None):
    """u affine, a = 1, b = 0, c = 0, so f = 0 analytically."""
    coef = (np.arange(1.0, dim + 1.0) if coef is None
            else np.asarray(coef, dtype=float))

    def u(x):
        return x @ coef + const

    def grad_u(x):
        return np.broadcast_to(coef, x.shape).copy()

    return custom_problem(dim, u, grad_u, zeros_scalar, a=ones_scalar,
                          name="linear", initial_gridlines=gridlines)


def source_problem(dim, source, a=None):
    """Poisson-type problem driven by a prescribed load, g = 0."""
    return custom_problem(dim, zeros_scalar, zeros_vector, zeros_scalar,
                          a=ones_scalar if a is None else a, source=source,
                          name="driven")


def tensor_locator(mesh):
    """Map interior points to the id of the element containing them."""

    def locate(x):
        flat = None
        for k, g in enumerate(mesh.gridlines):
            idx = np.clip(np.searchsorted(g, x[..., k], side="right") - 1,
                          0, g.size - 2)
            flat = idx if flat is None else flat * (g.size - 1) + idx
        return flat

    return locate


def parallel_locator(nx, ny):
    """Triangle locator for build_uniform_parallel on the unit square."""

    def locate(x):
        i = np.clip((x[..., 0] * nx).astype(int), 0, nx - 1)
        j = np.clip((x[..., 1] * ny).astype(int), 0, ny - 1)
        below = (x[..., 1] * ny - j) <= (x[..., 0] * nx - i)
        return 2 * (i * ny + j) + np.where(below, 0, 1)

    return locate


def tri_locator(trimesh):
    """Brute-force barycentric locator for points of any triangulation."""
    from ncflux.elements import cr_basis

    bary = cr_basis(trimesh).bary

    def locate(x):
        flat = x.reshape(-1, 2)
        aug = np.concatenate([np.ones((flat.shape[0], 1)), flat], axis=1)
        lam = np.einsum("pc,tcv->ptv", aug, bary)
        inside = (lam >= -1e-12).all(axis=2)
        assert inside.any(axis=1).all(), "point outside the mesh"
        return inside.argmax(axis=1).reshape(x.shape[:-1])

    return locate


def jittered_parallel(nx, ny, amount=0.03, seed=3):
    """Uniform triangulation with randomly shifted interior vertices."""
    from ncflux.mesh import TriMesh, build_uniform_parallel

    base = build_uniform_parallel(nx, ny)
    rng = np.random.default_rng(seed)
    v = base.vertices.copy()
    eps = 1e-12
    interior = ~((v[:, 0] < eps) | (v[:, 0] > 1.0 - eps)
                 | (v[:, 1] < eps) | (v[:, 1] > 1.0 - eps))
    v[interior] += rng.uniform(-amount, amount, size=(interior.sum(), 2))
    return TriMesh(v, base.triangles.copy())


def span_gradients(xi):
    """Gradients of the box span at centered coordinates xi (..., d),
    shape (..., d, nm): the per-point reference for the moment kernels."""
    d = xi.shape[-1]
    out = np.zeros(xi.shape[:-1] + (d, span_size(d)))
    for k in range(d):
        out[..., k, 1 + k] = 1.0
    for k in range(1, d):
        out[..., 0, d + k] = 2.0 * xi[..., 0]
        out[..., k, d + k] = -2.0 * xi[..., k]
    return out


def basis_gradients(mesh, coeff, pts, rows=slice(None)):
    """Gradients at pts (ne, nq, d) of the elements rows of the dof basis
    with tables coeff, shape (ne, nq, d, ndof), evaluated point by point."""
    g = span_gradients(pts - mesh.elem_center[rows, None, :])
    return np.einsum("eqdm,emj->eqdj", g, coeff[rows])


def project_onto_gradients(mesh, values, pts, wts):
    """Element-wise L2 projection onto the local gradient span, from point
    samples: the per-point reference for corrected_flux's moment path.

    The span on each element is generated by e_1..e_d and the fields
    (2 x_1, 0, .., -2 x_k, .., 0). values (ne, nq, d) are samples at the
    points pts of a rule with weights wts that integrates the span's
    products exactly, like cell_quadrature's.
    """
    def rhs():
        for blk in cell_blocks(mesh):
            wv = wts[blk, :, None] * values[blk]
            xi = pts[blk] - mesh.elem_center[blk, None, :]
            yield blk, wv.sum(axis=1), (wv * xi).sum(axis=1)

    return _projection(mesh, rhs())


def nc_coeff_by_inverse(mesh, kind):
    """nc_basis coefficients (ne, nm, ndof) as the inverse of the dof
    moment matrices: each dof functional applied to the span, facet means
    by the Gauss rule (exact on the span's quadratic traces), midpoint
    values by the one-point rule at the facet center."""
    d = mesh.dim
    if kind == "mean":
        ref = tensor_rule(d - 1, 4)
        points, weights = ref.points, ref.weights
    else:
        points, weights = np.full((1, d - 1), 0.5), np.ones(1)
    # half[:, k] is the facet offset l_k / 2 in centered coordinates
    half = 0.5 * mesh.elem_ext
    M = np.empty((mesh.ne, 2 * d, span_size(d)))
    for k in range(d):
        other = [j for j in range(d) if j != k]
        xi = np.empty((mesh.ne, weights.size, d))
        # map [0,1]^{d-1} onto the centered facet, symmetric about 0
        for c, j in enumerate(other):
            xi[:, :, j] = (2.0 * points[:, c] - 1.0) * half[:, None, j]
        for side, sign in ((0, -1.0), (1, 1.0)):
            xi[:, :, k] = sign * half[:, None, k]
            M[:, 2 * k + side, :] = np.einsum("q,eqm->em", weights,
                                              span_values(xi))
    return np.linalg.inv(M)


def cell_means(trimesh, func):
    """Triangle means of a scalar function, shape (ne,): the reference
    for the triangle means that the correction sums in its own loop."""
    out = np.empty(trimesh.ne)
    for rows in row_blocks(trimesh.ne):
        pts, wts = tri_quadrature(trimesh, rows)
        out[rows] = np.einsum("tq,tq->t", wts, func(pts))
    return out / trimesh.elem_measure


def cr_bary_by_inverse(trimesh):
    """Barycentric tables (ne, 3, 3) of cr_basis as the inverses of the
    vertex matrices [1, x_j, y_j]."""
    v = trimesh.vertices[trimesh.triangles]
    return np.linalg.inv(np.concatenate([np.ones(v.shape[:2] + (1,)), v],
                                        axis=2))


def edge_midpoint_average_loop(trimesh, cellvals):
    """cr.edge_midpoint_average of per-triangle values as a loop over the
    boundary edges: the reference for its vectorized candidate search and
    tie-break."""
    vals = np.empty((trimesh.nf, 2))
    for e in trimesh.interior_facets:
        lo, hi = trimesh.facet_elems[e]
        vals[e] = 0.5 * (cellvals[lo] + cellvals[hi])

    v = trimesh.vertices
    edir = v[trimesh.edges[:, 1]] - v[trimesh.edges[:, 0]]
    mid = trimesh.facet_midpoint
    ln = trimesh.facet_measure
    for e in trimesh.boundary_facets:
        tri = trimesh.facet_elems[e, 0]
        best = None
        for ep in trimesh.elem_facets[tri]:
            if ep == e or trimesh.facet_boundary[ep]:
                continue
            pair = trimesh.facet_elems[ep]
            nb = pair[1] if pair[0] == tri else pair[0]
            for epp in trimesh.elem_facets[nb]:
                cross = (edir[e, 0] * edir[epp, 1]
                         - edir[e, 1] * edir[epp, 0])
                if abs(cross) > 1e-12 * ln[e] * ln[epp]:
                    continue
                d2 = float(((mid[epp] - mid[e]) ** 2).sum())
                cand = (d2, int(epp), int(ep), int(nb))
                if best is None or cand < best:
                    best = cand
        if best is None:
            vals[e] = cellvals[tri]
            continue
        _, epp, ep, nb = best
        # a boundary parallel edge takes the value of its one triangle nb
        m2 = cellvals[nb] if trimesh.facet_boundary[epp] else vals[epp]
        vals[e] = 2.0 * vals[ep] - m2
    return EdgeMidpointField(trimesh, vals)


def refined_box_mesh(problem, min_cells):
    """problem's initial box mesh, refined and perturbed (seeded by the cell
    count) until it has min_cells cells or more."""
    mesh = build_tensor_mesh(*problem.initial_gridlines)
    while mesh.ne < min_cells:
        mesh = perturb(refine_midpoint(mesh), 0.2, seed=mesh.ne)
    return mesh


def cell_block_bytes(mesh):
    """Bytes of the mapped cell quadrature (points and weights) of the
    first block of cell_blocks(mesh): the unit of the allocation tests."""
    pts, wts = cell_quadrature(mesh, cell_blocks(mesh)[0])
    return pts.nbytes + wts.nbytes


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def perturbed_2d_meshes(draw, max_cells=24):
    """Box meshes of up to max_cells x max_cells cells, gridlines shifted.

    The two sides differ by at most a factor of two, so the cells stay
    below the nondegeneracy limit.
    """
    nx = draw(st.integers(2, max_cells))
    ny = draw(st.integers(max(2, nx // 2), min(max_cells, 2 * nx)))
    fraction = draw(st.floats(0.0, 0.25))
    seed = draw(st.integers(0, 2**16))
    return perturb(build_tensor_mesh(np.linspace(0.0, 1.0, nx + 1),
                                     np.linspace(0.0, 1.0, ny + 1)),
                   fraction, seed)


@st.composite
def tri_meshes(draw, max_cells=16):
    """Same-diagonal triangulations of up to max_cells x max_cells cells,
    half of them with jittered interior vertices, so that no two
    triangle centroids share a coordinate."""
    from ncflux.mesh import build_uniform_parallel

    nx = draw(st.integers(1, max_cells))
    ny = draw(st.integers(1, max_cells))
    if not draw(st.booleans()):
        return build_uniform_parallel(nx, ny)
    # a fifth of the smaller cell side keeps every triangle positive
    return jittered_parallel(nx, ny, amount=0.2 / max(nx, ny),
                             seed=draw(st.integers(0, 2**16)))


def solve_tensor(mesh, problem, tol=1e-12):
    system = assemble(mesh, problem)
    x, _ = solve(system.matrix, system.rhs, tol=tol)
    return reconstruct_field(mesh, system.full_dofs(x))


def solve_cr(trimesh, problem, tol=1e-12):
    system = assemble_cr(trimesh, problem)
    x, _ = solve(system.matrix, system.rhs, tol=tol)
    return CRField(trimesh, system.full_dofs(x))
