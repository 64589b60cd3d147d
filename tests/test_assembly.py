import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from ncflux import assembly, elements, sparse_solve
from ncflux.analysis import l2_error
from ncflux.assembly import (LinearSystem, assemble, boundary_means,
                             nested_dissection, prolongation,
                             reconstruct_field, unknown_index)
from ncflux.cr import assemble_cr, rt_interpolate_tri
from ncflux.elements import (DATA_RULE, BrokenRT, RawFlux, cell_blocks,
                             cell_quadrature, facet_blocks, facet_quadrature,
                             nc_basis, reference_coeffs)
from ncflux.mesh import (NONDEGENERACY_LIMIT, TensorMesh, TriMesh,
                         build_tensor_mesh, build_uniform_parallel, coarsen,
                         perturb, refine_midpoint)
from ncflux.recovery import (MidpointFlux, corrected_flux, midpoint_average,
                             rt_interpolate)
from ncflux.problems import Term, custom_problem, problem1, problem2
from ncflux.quadrature import tensor_rule

from helpers import (basis_gradients, basis_values, cell_block_bytes,
                     diagonal_strip, eval_at, jittered_parallel,
                     linear_problem, perturbed_2d_meshes,
                     project_onto_gradients, refined_box_mesh, solve_tensor,
                     stack_dissection, traced_peak, tri_meshes)


def polynomial_problem():
    # all closed forms are low-degree polynomials, so every quadrature
    # rule of moderate order integrates the weak forms exactly
    return custom_problem(
        dim=2,
        u=lambda x: x[..., 0] ** 2 * x[..., 1],
        grad_u=lambda x: np.stack(
            [2.0 * x[..., 0] * x[..., 1], x[..., 0] ** 2], axis=-1),
        lap_u=lambda x: 2.0 * x[..., 1],
        a=lambda x: 1.0 + x[..., 0] * x[..., 1],
        grad_a=lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
        b=lambda x: np.stack([x[..., 1] ** 2, x[..., 0]], axis=-1),
        c=lambda x: x[..., 0] * x[..., 1],
    )


def dense_reference_system(mesh, problem, npts=5):
    """Assemble the full facet-by-facet matrix with an independent loop."""
    gl, gw = np.polynomial.legendre.leggauss(npts)
    amat = np.zeros((mesh.nf, mesh.nf))
    load = np.zeros(mesh.nf)
    for e in range(mesh.ne):
        lo = mesh.elem_lo[e]
        ext = mesh.elem_ext[e]
        x1 = lo[0] + ext[0] * (gl + 1.0) / 2.0
        x2 = lo[1] + ext[1] * (gl + 1.0) / 2.0
        px, py = np.meshgrid(x1, x2, indexing="ij")
        pts = np.stack([px.ravel(), py.ravel()], axis=-1)[None]
        wts = (np.outer(gw, gw).ravel() * ext[0] * ext[1] / 4.0)[None]
        sub = build_tensor_mesh((lo[0], lo[0] + ext[0]),
                                (lo[1], lo[1] + ext[1]))
        sub_tables = nc_basis(sub, "mean")
        phi = basis_values(sub, sub_tables, pts)[0]        # (nq, 4)
        gphi = basis_gradients(sub, sub_tables, pts)[0]    # (nq, 2, 4)
        w = wts[0]
        aval = problem.a(pts[0])
        local = np.einsum("q,qdi,qdj->ij", w * aval, gphi, gphi)
        bv = problem.b(pts[0])
        local += np.einsum("q,qj,qi->ij",
                           w, np.einsum("qd,qdj->qj", bv, gphi), phi)
        local += np.einsum("q,qj,qi->ij", w * problem.c(pts[0]), phi, phi)
        floc = np.einsum("q,qi->i", w * Term(problem, "f")(pts[0]), phi)
        facets = mesh.elem_facets[e]
        amat[np.ix_(facets, facets)] += local
        load[facets] += floc
    return amat, load


def test_assembled_matrix_matches_dense_reference():
    mesh = build_tensor_mesh((0.0, 0.4, 1.0), (0.0, 0.3, 1.0))
    problem = polynomial_problem()
    system = assemble(mesh, problem)
    amat, load = dense_reference_system(mesh, problem)
    inter, bnd = mesh.interior_facets, mesh.boundary_facets
    ref = amat[np.ix_(inter, inter)]
    got = system.matrix.toarray()
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() < 1e-12 * scale
    ref_rhs = (load[inter] - amat[np.ix_(inter, bnd)] @ system.bc_values)
    assert np.abs(system.rhs - ref_rhs).max() < 1e-12 * max(
        1.0, np.abs(ref_rhs).max())


def test_matrix_symmetric_without_advection():
    mesh = perturb(refine_midpoint(
        build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))), 0.2, seed=3)
    prob = custom_problem(
        dim=2,
        u=lambda x: np.zeros(x.shape[:-1]),
        grad_u=lambda x: np.zeros_like(x),
        lap_u=lambda x: np.zeros(x.shape[:-1]),
        a=lambda x: 1.0 + x[..., 0] ** 2,
        grad_a=lambda x: np.stack(
            [2.0 * x[..., 0], np.zeros(x.shape[:-1])], axis=-1),
        c=lambda x: np.exp(x[..., 1]),
    )
    mat = assemble(mesh, prob).matrix
    asym = np.abs((mat - mat.T).toarray()).max()
    assert asym < 1e-12 * np.abs(mat.toarray()).max()


def test_advection_breaks_symmetry():
    mesh = refine_midpoint(build_tensor_mesh((0.0, 1.0), (0.0, 1.0)))
    mat = assemble(mesh, polynomial_problem()).matrix
    asym = np.abs((mat - mat.T).toarray()).max()
    assert asym > 1e-6


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_solution_is_reproduced_exactly(dim):
    base = build_tensor_mesh(*(((0.0, 0.5, 1.0),) * dim))
    mesh = perturb(refine_midpoint(base), 0.2, seed=11)
    prob = linear_problem(dim, coef=tuple(range(1, dim + 1)), const=0.3)
    exact_dofs = prob.u(mesh.facet_midpoint)

    system = assemble(mesh, prob)
    residual = system.matrix @ exact_dofs[mesh.interior_facets] - system.rhs
    assert np.abs(residual).max() < 1e-12

    field = solve_tensor(mesh, prob)
    assert np.abs(field.dofs - exact_dofs).max() < 1e-10


def test_linear_exactness_with_advection_and_reaction():
    mesh = perturb(refine_midpoint(
        build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))), 0.2, seed=12)
    prob = custom_problem(
        dim=2,
        u=lambda x: 2.0 * x[..., 0] - x[..., 1] + 0.5,
        grad_u=lambda x: np.broadcast_to([2.0, -1.0], x.shape).copy(),
        lap_u=lambda x: np.zeros(x.shape[:-1]),
        a=lambda x: np.ones(x.shape[:-1]),
        b=lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
        c=lambda x: np.full(x.shape[:-1], 3.0),
    )
    field = solve_tensor(mesh, prob)
    exact = prob.u(mesh.facet_midpoint)
    assert np.abs(field.dofs - exact).max() < 1e-10


def test_boundary_means_of_constant():
    mesh = build_tensor_mesh((0.0, 0.4, 0.8, 1.0), (0.0, 0.7, 1.0))
    bm = boundary_means(mesh, lambda x: np.ones(x.shape[:-1]))
    assert np.allclose(bm, 1.0, atol=1e-14)


def test_boundary_means_of_coordinate_on_known_facet():
    mesh = build_tensor_mesh((0.0, 0.4, 0.8, 1.0), (0.0, 0.7, 1.0))
    bm = boundary_means(mesh, lambda x: x[..., 0])
    mids = mesh.facet_midpoint[mesh.boundary_facets]
    sel = np.isclose(mids[:, 0], 0.2) & np.isclose(mids[:, 1], 0.0)
    assert sel.sum() == 1
    assert bm[sel][0] == pytest.approx(0.2, abs=1e-14)


@pytest.mark.parametrize("mesh_factory", [
    lambda: perturb(build_tensor_mesh(*([np.linspace(0.0, 1.0, 4)] * 2)),
                    0.2, seed=7),
    lambda: jittered_parallel(3, 3, seed=7),
], ids=["box", "tri"])
def test_boundary_means_of_linear_data(mesh_factory):
    mesh = mesh_factory()
    bm = boundary_means(mesh, lambda x: x[..., 0] - 2.0 * x[..., 1])
    mids = mesh.facet_midpoint[mesh.boundary_facets]
    assert np.abs(bm - (mids[:, 0] - 2.0 * mids[:, 1])).max() < 1e-13


def test_boundary_means_on_edges_take_three_points_exact_to_degree_5():
    # a jittered triangulation turned and sheared, so that no boundary
    # edge is axis-aligned
    base = jittered_parallel(4, 3, amount=0.05, seed=11)
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    mesh = TriMesh(base.vertices @ (turn @ [[1.0, 0.4], [0.0, 1.0]]).T,
                   base.triangles)
    sampled = []

    def g(x):
        sampled.append(x.shape)
        x0, x1 = x[..., 0], x[..., 1]
        return x0 ** 5 - 3.0 * x0 ** 2 * x1 ** 3 + x1

    bm = boundary_means(mesh, g)
    b = mesh.boundary_facets
    assert sampled == [(b.size, 3, 2)]
    # the mean of g along each edge by an independent 6-point Gauss rule
    t, w = np.polynomial.legendre.leggauss(6)
    lo, hi = (mesh.vertices[mesh.edges[b, j]] for j in (0, 1))
    pts = 0.5 * ((lo + hi)[:, None, :] + t[:, None] * (hi - lo)[:, None, :])
    want = 0.5 * g(pts) @ w
    assert np.abs(bm - want).max() < 1e-13 * np.abs(want).max()


def test_boundary_means_against_antiderivative():
    mesh = refine_midpoint(
        build_tensor_mesh((0.0, 0.4, 0.8, 1.0), (0.0, 0.7, 1.0)))

    def g(x):
        return x[..., 0] ** 3 - 2.0 * x[..., 0] ** 2

    def antiderivative(t):
        return t ** 4 / 4.0 - 2.0 * t ** 3 / 3.0

    bm = boundary_means(mesh, g)
    b = mesh.boundary_facets
    horizontal = mesh.facet_axis[b] == 1
    fids = b[horizontal]
    mid = mesh.facet_midpoint[fids, 0]
    half = mesh.facet_measure[fids] / 2.0
    lo, hi = mid - half, mid + half
    expected = (antiderivative(hi) - antiderivative(lo)) / (hi - lo)
    assert np.abs(bm[horizontal] - expected).max() < 1e-13
    # along vertical boundary facets the integrand is constant
    vids = b[~horizontal]
    assert np.abs(bm[~horizontal]
                  - g(mesh.facet_midpoint[vids])).max() < 1e-13


def test_reconstruct_zero_field():
    mesh = build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))
    field = reconstruct_field(mesh, np.zeros(mesh.nf))
    pts, _ = cell_quadrature(mesh)
    assert np.allclose(eval_at(field, pts), 0.0)
    assert np.allclose(eval_at(field.gradient_rt(), pts), 0.0)


def test_reconstruct_linear_field_reproduces_it():
    mesh = perturb(refine_midpoint(
        build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))), 0.15, seed=4)

    def u(x):
        return 1.0 + 2.0 * x[..., 0] - 3.0 * x[..., 1]

    field = reconstruct_field(mesh, u(mesh.facet_midpoint))
    pts, _ = cell_quadrature(mesh)
    assert np.abs(eval_at(field, pts) - u(pts)).max() < 1e-12
    grads = eval_at(field.gradient_rt(), pts)
    assert np.abs(grads - np.array([2.0, -3.0])).max() < 1e-12
    assert np.allclose(field.values_at_centers(), u(mesh.elem_center),
                       atol=1e-12)
    assert np.allclose(field.gradients_at_centers(),
                       np.tile([2.0, -3.0], (mesh.ne, 1)), atol=1e-12)


def test_gradient_rt_agrees_with_pointwise_gradients():
    # the closed affine form against the dof-weighted basis gradients
    rng = np.random.default_rng(9)
    mesh = perturb(refine_midpoint(
        build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))), 0.2, seed=5)
    field = reconstruct_field(mesh, rng.normal(size=mesh.nf))
    pts, _ = cell_quadrature(mesh)
    gphi = basis_gradients(mesh, nc_basis(mesh), pts)
    pointwise = np.einsum("eqdj,ej->eqd", gphi,
                          field.dofs[mesh.elem_facets])
    rt = field.gradient_rt()
    assert np.abs(eval_at(rt, pts) - pointwise).max() < 1e-11


def test_reconstruct_rejects_wrong_dof_count():
    mesh = build_tensor_mesh((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        reconstruct_field(mesh, np.zeros(mesh.nf + 1))


def test_galerkin_residual_recomputed_without_matrix():
    prob = problem1()
    mesh = perturb(refine_midpoint(
        build_tensor_mesh(*prob.initial_gridlines)), 0.2, seed=8)
    field = solve_tensor(mesh, prob, tol=1e-13)

    tables = nc_basis(mesh, "mean")
    pts, wts = cell_quadrature(mesh, rule=DATA_RULE)
    phi = basis_values(mesh, tables, pts)
    gphi = basis_gradients(mesh, tables, pts)
    grads = eval_at(field.gradient_rt(), pts)
    vals = eval_at(field, pts)
    load = Term(prob, "f")(pts)
    integrand = np.einsum("eq,eqd,eqdi->ei",
                          wts * prob.a(pts), grads, gphi)
    adv = np.einsum("eqd,eqd->eq", prob.b(pts), grads)
    integrand += np.einsum("eq,eqi->ei", wts * (adv + prob.c(pts) * vals
                                                - load), phi)
    residual = np.zeros(mesh.nf)
    np.add.at(residual, mesh.elem_facets.ravel(), integrand.ravel())
    load_scale = np.abs(np.einsum("eq,eq->", wts, np.abs(load)))
    assert np.abs(residual[mesh.interior_facets]).max() < 1e-8 * load_scale


def test_boundary_lift_shifts_solution_by_constant():
    mesh = perturb(refine_midpoint(
        build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))), 0.2, seed=6)

    def harmonic(shift):
        return custom_problem(
            dim=2,
            u=lambda x: x[..., 0] * x[..., 1] + shift,
            grad_u=lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
            lap_u=lambda x: np.zeros(x.shape[:-1]),
            a=lambda x: np.ones(x.shape[:-1]),
        )

    sys0 = assemble(mesh, harmonic(0.0))
    sys1 = assemble(mesh, harmonic(10.0))
    x0 = spsolve(sys0.matrix, sys0.rhs)
    x1 = spsolve(sys1.matrix, sys1.rhs)
    diff = sys1.full_dofs(x1) - sys0.full_dofs(x0)
    assert np.abs(diff - 10.0).max() < 1e-10


def test_dimension_mismatch_rejected():
    mesh = build_tensor_mesh((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        assemble(mesh, problem2())


@pytest.mark.parametrize("mesh_factory, assembler", [
    (lambda: build_tensor_mesh((0.0, 0.4, 0.8, 1.0), (0.0, 0.7, 1.0)),
     assemble),
    (lambda: build_uniform_parallel(3, 2), assemble_cr),
], ids=["box", "tri"])
def test_unknown_index_partitions_facets(mesh_factory, assembler):
    mesh = mesh_factory()
    inter, bnd = mesh.interior_facets, mesh.boundary_facets
    unknown = unknown_index(mesh)
    assert unknown is unknown_index(mesh)
    assert not unknown.flags.writeable
    assert np.all(unknown[bnd] == -1)
    assert np.array_equal(unknown[inter], np.arange(inter.size))
    assert inter.size + bnd.size == mesh.nf
    system = assembler(mesh, problem1())
    assert isinstance(system, LinearSystem)
    assert system.matrix.shape == (inter.size, inter.size)
    x = np.arange(1.0, inter.size + 1)
    full = system.full_dofs(x)
    assert full.shape == (mesh.nf,)
    assert np.array_equal(full[inter], x)
    assert np.array_equal(full[bnd], system.bc_values)


def chunked_level(mesh, prob):
    """The per-level box quantities of the study, for comparing block sizes."""
    tables = (nc_basis(mesh, "mean"), nc_basis(mesh, "midpoint"))
    system = assemble(mesh, prob)
    x = spsolve(system.matrix, system.rhs)
    field = reconstruct_field(mesh, system.full_dofs(x))
    pts, _ = cell_quadrature(mesh)
    sigma = corrected_flux(field, prob)
    recovered = midpoint_average(sigma)
    interp = rt_interpolate(mesh, prob.grad_u)
    errors = np.array([
        l2_error(mesh, prob.u, field),
        l2_error(mesh, prob.grad_u, RawFlux(prob.a, field.gradient_rt())),
        l2_error(mesh, sigma - interp),
        l2_error(mesh, prob.grad_u, recovered)])
    return (tables, system, eval_at(field, pts),
            eval_at(field.gradient_rt(), pts), sigma, interp,
            eval_at(recovered, pts), errors)


@pytest.mark.parametrize("mesh_factory, prob", [
    (lambda: perturb(refine_midpoint(refine_midpoint(build_tensor_mesh(
        *problem1().initial_gridlines))), 0.2, seed=31), problem1()),
    (lambda: perturb(refine_midpoint(build_tensor_mesh(
        *problem2().initial_gridlines)), 0.2, seed=32), problem2()),
], ids=["2d", "3d"])
def test_chunks_give_the_single_chunk_results(monkeypatch, mesh_factory,
                                              prob):
    mesh = mesh_factory()
    # every box loop reads the point budget from elements at call time:
    # 7 cells a block of the norm rule, and 37 facets (2d) or 49 (3d) of
    # the facet rule, the last block a partial one
    monkeypatch.setattr(elements, "BLOCK_POINTS", 7 * 4 ** mesh.dim)
    for blocks, n in ((cell_blocks(mesh), mesh.ne),
                      (facet_blocks(mesh), mesh.nf)):
        assert len(blocks) > 2
        assert n % (blocks[0].stop - blocks[0].start) != 0
    chunked = chunked_level(mesh, prob)
    # a fresh mesh, with every box loop in one block
    mesh = mesh_factory()
    monkeypatch.setattr(elements, "BLOCK_POINTS", mesh.nf * 4 ** mesh.dim)
    assert len(cell_blocks(mesh)) == len(facet_blocks(mesh)) == 1
    whole = chunked_level(mesh, prob)

    (tab_c, sys_c, values_c, grads_c, sig_c, int_c, rec_c, err_c) = chunked
    (tab_w, sys_w, values_w, grads_w, sig_w, int_w, rec_w, err_w) = whole
    for coeff_c, coeff_w in zip(tab_c, tab_w):
        assert np.array_equal(coeff_c, coeff_w)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(sys_c.matrix, name),
                              getattr(sys_w.matrix, name))
    assert np.array_equal(sys_c.rhs, sys_w.rhs)
    assert np.array_equal(values_c, values_w)
    assert np.array_equal(grads_c, grads_w)
    assert np.array_equal(sig_c.alpha, sig_w.alpha)
    assert np.array_equal(sig_c.beta, sig_w.beta)
    assert np.array_equal(int_c.alpha, int_w.alpha)
    assert np.array_equal(int_c.beta, int_w.beta)
    assert np.array_equal(rec_c, rec_w)
    # only the order of the block sums differs
    assert np.all(np.abs(err_c - err_w) <= 1e-14 * err_w)


def test_assembly_allocates_one_block_at_a_time(monkeypatch):
    prob = problem2()
    monkeypatch.setattr(elements, "BLOCK_POINTS", 256 * 4 ** 3)
    # fresh meshes, so nothing is built before the calls measured
    mesh = refined_box_mesh(prob, 4096)
    block_bytes = cell_block_bytes(mesh)
    # 14.2 blocks measured: the triplets and the matrix take about 9, a
    # block's quadrature, data samples, moments and basis tables the
    # rest. A block's per-point basis gradients, (block, nq, d, ndof),
    # would add 4.5, and the whole mesh's basis tables 2.25 and more
    assert traced_peak(assemble, mesh, prob) <= 15 * block_bytes
    # 0.62 blocks measured: the field's coefficients take 0.375
    mesh = refined_box_mesh(prob, 4096)
    dofs = np.random.default_rng(57).normal(size=mesh.nf)
    assert traced_peak(reconstruct_field, mesh, dofs) <= block_bytes


# -- moment kernels against their per-point einsum form -----------------------

def perturbed_level(prob, refinements, seed):
    mesh = build_tensor_mesh(*prob.initial_gridlines)
    for _ in range(refinements):
        mesh = refine_midpoint(mesh)
    return perturb(mesh, 0.2, seed=seed)


def einsum_local_blocks(mesh, problem):
    tables = nc_basis(mesh, "mean")
    p, w = cell_quadrature(mesh, rule=DATA_RULE)
    phi = basis_values(mesh, tables, p)
    gphi = basis_gradients(mesh, tables, p)
    local = np.einsum("bq,bqdi,bqdj->bij", w * problem.a(p), gphi, gphi)
    if problem.b is not None:
        bdotg = np.einsum("bqd,bqdj->bqj", problem.b(p), gphi)
        local += np.einsum("bq,bqj,bqi->bij", w, bdotg, phi)
    if problem.c is not None:
        local += np.einsum("bq,bqj,bqi->bij", w * problem.c(p), phi, phi)
    load = np.einsum("bq,bqi->bi", w * Term(problem, "f")(p), phi)
    return local, load


def einsum_projection(mesh, values, pts, wts):
    d = mesh.dim
    nb = 2 * d - 1
    xi = pts - mesh.elem_center[:, None, :]
    B = np.zeros(pts.shape[:2] + (d, nb))
    for j in range(d):
        B[:, :, j, j] = 1.0
    for k in range(1, d):
        B[:, :, 0, d + k - 1] = xi[..., 0]
        B[:, :, k, d + k - 1] = -xi[..., k]
    gram = np.einsum("eq,eqdi,eqdj->eij", wts, B, B)
    rhs = np.einsum("eq,eqd,eqdi->ei", wts, values, B)
    return np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]


def close(got, ref, rel=1e-13):
    return np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("prob, refinements, seed", [
    (problem1(), 2, 41), (problem2(), 1, 42)], ids=["2d-p1", "3d-p2"])
def test_matmul_kernels_match_their_einsum_form(prob, refinements, seed):
    mesh = perturbed_level(prob, refinements, seed)
    assert (prob.b is not None and prob.c is not None) == (mesh.dim == 2)
    pts, wts = cell_quadrature(mesh)

    blocks = list(assembly._local_blocks(mesh, prob))
    assert len(blocks) == 1
    facets, local, load = blocks[0]
    ref_local, ref_load = einsum_local_blocks(mesh, prob)
    assert np.array_equal(facets, mesh.elem_facets)
    assert close(local, ref_local)
    assert close(load, ref_load)

    rng = np.random.default_rng(seed)
    field = reconstruct_field(mesh, rng.normal(size=mesh.nf))
    values = prob.a(pts)[..., None] * eval_at(field.gradient_rt(), pts)
    coef = einsum_projection(mesh, values, pts, wts)
    got = project_onto_gradients(mesh, values, pts, wts)
    d = mesh.dim
    # the projection's coefficients, read back from its affine form
    assert close(got.beta[:, 1:], -coef[:, d:])
    assert close(got.beta[:, 0], coef[:, d:].sum(axis=1))
    assert close(got.alpha, coef[:, :d] - got.beta * mesh.elem_center)


@pytest.mark.parametrize("kind", ["2d", "3d", "tri"])
def test_assembled_matrix_holds_only_its_nonzeros(kind):
    # summing the COO triplets' duplicates must not leave the matrix on
    # storage sized for the triplets
    if kind == "tri":
        system = assemble_cr(build_uniform_parallel(24, 24), problem1())
    else:
        prob = problem1() if kind == "2d" else problem2()
        mesh = refined_box_mesh(prob, 2000)
        system = assemble(mesh, prob)
    matrix = system.matrix
    assert matrix.has_canonical_format
    for arr in (matrix.data, matrix.indices):
        assert arr.base is None or arr.base.size == matrix.nnz
        assert arr.size == matrix.nnz


@pytest.mark.parametrize("dim", [2, 3])
def test_box_fields_evaluate_one_block_of_rows(dim):
    rng = np.random.default_rng(43 + dim)
    gl = np.linspace(0.0, 1.0, 4)
    mesh = perturb(build_tensor_mesh(*([gl] * dim)), 0.2, seed=44)
    pts, _ = cell_quadrature(mesh)
    rows = slice(5, 17)
    field = reconstruct_field(mesh, rng.normal(size=mesh.nf))
    flux = BrokenRT(mesh, rng.normal(size=(mesh.ne, dim)),
                    rng.normal(size=(mesh.ne, dim)))
    # the table fields' coefficients, and the points of a RawFlux's a
    fields = [field, field.gradient_rt(), flux,
              MidpointFlux(mesh, rng.normal(size=(mesh.nf, dim)))]
    for fld in fields:
        assert np.array_equal(fld.reference_coeffs(rows),
                              fld.reference_coeffs()[rows])
    assert np.array_equal(cell_quadrature(mesh, rows)[0], pts[rows])


# -- nested-dissection order ----------------------------------------------------

@settings(max_examples=25)
@given(st.one_of(perturbed_2d_meshes(), tri_meshes()))
def test_nested_dissection_is_a_permutation_of_the_unknowns(mesh):
    order = nested_dissection(mesh)
    assert np.array_equal(np.sort(order), np.arange(mesh.interior_facets.size))


def check_dissection(mesh, matrix, order, lo, hi):
    """Check that order, the unknowns of the cell box [lo, hi), is left
    half, right half, then the separator, and that no matrix entry links
    the halves; recurse into them. Returns the number of cuts checked.

    Halves are told apart by facet midpoints against the gridline of the
    cut, not by the cell indices the order is built from.
    """
    ext = [h - l for l, h in zip(lo, hi)]
    if np.prod(ext) <= assembly.ND_LEAF:
        return 0
    k = int(np.argmax(ext))
    mid = (lo[k] + hi[k]) // 2
    cut = mesh.gridlines[k][mid]
    facets = mesh.interior_facets[order]
    x = mesh.facet_midpoint[facets, k]
    sep = (mesh.facet_axis[facets] == k) & (x == cut)
    nl = np.count_nonzero(x < cut)
    nr = order.size - nl - np.count_nonzero(sep)
    assert (x[:nl] < cut).all()
    assert (x[nl:nl + nr] > cut).all()
    assert sep[nl + nr:].all() and sep.any()
    left, right = order[:nl], order[nl:nl + nr]
    assert matrix[left][:, right].nnz == 0
    assert matrix[right][:, left].nnz == 0
    return (1 + check_dissection(mesh, matrix, left, lo,
                                 hi[:k] + (mid,) + hi[k + 1:])
            + check_dissection(mesh, matrix, right,
                               lo[:k] + (mid,) + lo[k + 1:], hi))


@settings(max_examples=25)
@given(perturbed_2d_meshes())
def test_nested_dissection_separators_decouple_their_halves(mesh):
    matrix = assemble(mesh, problem1()).matrix
    cuts = check_dissection(mesh, matrix, nested_dissection(mesh),
                            (0, 0), mesh.shape)
    assert (cuts > 0) == (mesh.ne > assembly.ND_LEAF)


def check_tri_dissection(mesh, matrix, order, lo, hi):
    """check_dissection on triangles: order holds the unknowns of the box
    [lo, hi) of centroid ranks, which is cut at the distinct centroid
    coordinate of rank mid. Halves are told apart by the centroids of an
    edge's two triangles against that coordinate."""
    ext = [h - l for l, h in zip(lo, hi)]
    if order.size <= 1 or np.prod(ext) <= assembly.ND_LEAF:
        return 0
    k = int(np.argmax(ext))
    mid = (lo[k] + hi[k]) // 2
    cut = np.unique(mesh.elem_center[:, k])[mid]
    edges = mesh.interior_facets[order]
    x = mesh.elem_center[mesh.facet_elems[edges], k]  # (n, 2)
    is_left = (x < cut).all(axis=1)
    is_right = (x >= cut).all(axis=1)
    nl, nr = np.count_nonzero(is_left), np.count_nonzero(is_right)
    assert is_left[:nl].all()
    assert is_right[nl:nl + nr].all()
    assert not (is_left | is_right)[nl + nr:].any()
    left, right = order[:nl], order[nl:nl + nr]
    assert matrix[left][:, right].nnz == 0
    assert matrix[right][:, left].nnz == 0
    return (1 + check_tri_dissection(mesh, matrix, left, lo,
                                     hi[:k] + (mid,) + hi[k + 1:])
            + check_tri_dissection(mesh, matrix, right,
                                   lo[:k] + (mid,) + lo[k + 1:], hi))


@settings(max_examples=25)
@given(tri_meshes())
def test_nested_dissection_separates_triangles(mesh):
    matrix = assemble_cr(mesh, problem1()).matrix
    ranks = tuple(np.unique(c).size for c in mesh.elem_center.T)
    cuts = check_tri_dissection(mesh, matrix, nested_dissection(mesh),
                                (0, 0), ranks)
    assert (cuts > 0) == (np.prod(ranks) > assembly.ND_LEAF
                          and mesh.interior_facets.size > 1)


def cell_index_dissection(mesh):
    """The box-only order nested_dissection generalizes: cut the cell
    index box at the middle gridline of its longer side, recursively;
    the interior facets on that gridline are the separator."""
    inter = mesh.interior_facets
    axis = mesh.facet_axis[inter]
    # cell index of the upper neighbour
    coord = mesh.elem_index[mesh.facet_elems[inter, 1]]
    out = []

    def split(unk, lo, hi):
        ext = [h - l for l, h in zip(lo, hi)]
        if np.prod(ext) <= assembly.ND_LEAF:
            out.append(unk)
            return
        k = int(np.argmax(ext))
        mid = (lo[k] + hi[k]) // 2
        c = coord[unk, k]
        sep = (axis[unk] == k) & (c == mid)
        left = c < mid
        split(unk[left], lo, hi[:k] + (mid,) + hi[k + 1:])
        split(unk[~left & ~sep], lo[:k] + (mid,) + lo[k + 1:], hi)
        out.append(unk[sep])

    split(np.arange(inter.size), (0,) * mesh.dim, tuple(mesh.shape))
    return np.concatenate(out)


@settings(max_examples=25)
@given(perturbed_2d_meshes())
def test_nested_dissection_of_boxes_is_the_cell_index_order(mesh):
    assert np.array_equal(nested_dissection(mesh),
                          cell_index_dissection(mesh))


# L+U nonzeros of the float32 factor in nested-dissection order with
# 16-rank leaves; 64-cell leaves gave 397,856 on the box mesh
ND_FILL = {"box": 314_944, "tri": 354_624}


@pytest.mark.parametrize("kind", ["box", "tri"])
def test_nested_dissection_factor_fill_stays_bounded(monkeypatch, kind):
    if kind == "box":
        gl = np.linspace(0.0, 1.0, 65)
        mesh = perturb(build_tensor_mesh(gl, gl), 0.2, seed=7)
        system = assemble(mesh, problem1())
    else:
        mesh = build_uniform_parallel(64, 64)
        system = assemble_cr(mesh, problem1())
    factors = []
    splu = sparse_solve.spla.splu

    def kept(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(sparse_solve.spla, "splu", kept)
    sparse_solve.solve(system.matrix, system.rhs,
                       order=nested_dissection(mesh))
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 1.02 * ND_FILL[kind]


def test_nested_dissection_of_a_3d_box_mesh_is_the_cell_index_order():
    gl = np.linspace(0.0, 1.0, 9)
    mesh = perturb(build_tensor_mesh(gl, gl[:6], gl), 0.2, seed=45)
    assert np.array_equal(nested_dissection(mesh),
                          cell_index_dissection(mesh))


@settings(max_examples=50)
@given(st.one_of(perturbed_2d_meshes(), tri_meshes()))
def test_nested_dissection_is_the_stack_order(mesh):
    assert np.array_equal(nested_dissection(mesh), stack_dissection(mesh))


def test_nested_dissection_is_the_stack_order_on_fixed_meshes():
    gl = np.linspace(0.0, 1.0, 9)
    with pytest.warns(UserWarning, match="nondegeneracy"):
        strip = perturb(build_tensor_mesh(np.linspace(0.0, 1.0, 4),
                                          np.linspace(0.0, 1.0, 201)),
                        0.2, seed=46)
    meshes = [
        perturb(build_tensor_mesh(gl, gl[:6], gl), 0.2, seed=45),
        build_uniform_parallel(5, 37),
        strip,
        perturb(build_tensor_mesh(gl[::2], gl[::2]), 0.2, seed=47),
        build_uniform_parallel(1, 1),
    ]
    assert meshes[3].ne <= assembly.ND_LEAF
    assert meshes[4].interior_facets.size == 1
    for mesh in meshes:
        assert np.array_equal(nested_dissection(mesh), stack_dissection(mesh))


@pytest.mark.parametrize("mesh", [
    diagonal_strip(1000), diagonal_strip(4000),
    jittered_parallel(32, 32, amount=0.2 / 32, seed=5)],
    ids=["strip-1000", "strip-4000", "jittered-32x32"])
def test_nested_dissection_memory_is_linear_in_the_cells(mesh):
    """A diagonal needs about 2 log2(ne) - 4 cuts and a jittered mesh a
    rank box of ne^2, so boxes kept at every depth, rather than only
    those still to cut, would reach 2^depth."""
    ne = mesh.elem_center.shape[0]
    assert traced_peak(nested_dissection, mesh) <= 160 * ne


def test_nested_dissection_of_a_diagonal_strip():
    """The deepest tree for its cell count: the stack order at 20,000
    cells, and a ValueError from 163,841 cells, the smallest diagonal
    that needs a 32nd cut, on."""
    mesh = diagonal_strip(20_000)
    assert np.array_equal(nested_dissection(mesh), stack_dissection(mesh))
    assert nested_dissection(diagonal_strip(163_840)).size == 163_839
    with pytest.raises(ValueError, match="163841 cells needs more than 31"):
        nested_dissection(diagonal_strip(163_841))


def bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_column_wise_reductions_keep_the_reductions_bits():
    """Reductions over an axis of length 2 or 3 are written as ufuncs on
    the columns; they must give the bits of numpy's own reductions."""
    gl = np.linspace(0.0, 1.0, 5)
    meshes = [
        perturb(refine_midpoint(refine_midpoint(
            build_tensor_mesh((0.0, 0.4, 0.8, 1.0), (0.0, 0.7, 1.0)))),
            0.2, seed=11),
        perturb(refine_midpoint(build_tensor_mesh(gl, gl[:4], gl)),
                0.2, seed=12),
        TensorMesh([np.array([0.0, 0.1, 0.15, 0.6, 1.0])]),
    ]
    rng = np.random.default_rng(13)
    for mesh in meshes:
        ext = mesh.elem_ext
        assert bits_equal(mesh.elem_measure, np.prod(ext, axis=1))
        m = mesh.elem_measure[mesh.facet_elems[mesh.interior_facets]]
        worst = max((ext.max(axis=1) / ext.min(axis=1)).max(),
                    (m.max(axis=1) / m.min(axis=1)).max())
        assert mesh.nondegeneracy == float(worst)
        rule = tensor_rule(mesh.dim, elements.NORM_RULE)
        assert bits_equal(cell_quadrature(mesh)[1],
                          np.prod(ext, axis=1)[:, None] * rule.weights)
        if mesh.dim == 1:
            continue
        # the rank pairs are integers: the order is the cell-index one
        assert np.array_equal(nested_dissection(mesh),
                              cell_index_dissection(mesh))
        flux = BrokenRT(mesh, rng.normal(size=(mesh.ne, mesh.dim)),
                        rng.normal(size=(mesh.ne, mesh.dim)))
        tr = flux.midpoint_traces()[mesh.interior_facets]
        ref = (m[:, [0]] * tr[:, 1] + m[:, [1]] * tr[:, 0]) / m.sum(
            axis=1, keepdims=True)
        got = midpoint_average(flux).values
        assert bits_equal(got[mesh.interior_facets], ref)
        mean = flux.values_at_centers()
        cells = mean * mean + flux.beta ** 2 * mesh.elem_second_moment
        assert flux.l2_norm() == float(np.sqrt(
            mesh.elem_measure @ cells.sum(axis=1)))
        d = mesh.dim
        field = reconstruct_field(mesh, rng.normal(size=mesh.nf))
        assert bits_equal(field.gradient_rt().beta[:, 0],
                          2.0 * field.coeffs[:, d + 1:].sum(axis=1))
        sq0 = (0.5 * ext[:, 0]) ** 2
        for coeffs, sq in ((field.coeffs, sq0),
                           (rng.normal(size=(mesh.ne, 2, 2 * d)),
                            sq0[:, None])):
            assert bits_equal(reference_coeffs(mesh, coeffs)[..., d + 1],
                              sq * coeffs[..., d + 1:].sum(axis=-1))
    # triangles: centroids, second moments and the edge-flux interpolant
    tri = jittered_parallel(6, 5, amount=0.05)
    v = tri.vertices[tri.triangles]
    assert bits_equal(tri.elem_center, v.mean(axis=1))
    rel = v - tri.elem_center[:, None]
    assert bits_equal(tri.elem_second_moment, (rel ** 2).sum(axis=1) / 12.0)
    vec = polynomial_problem().grad_u
    pts, wts = facet_quadrature(tri)
    flux = np.einsum("eq,eq->e", wts,
                     np.einsum("eqd,ed->eq", vec(pts), tri.facet_normal))
    t = tri.triangles
    F = (np.where(t[:, [1, 2, 0]] < t[:, [2, 0, 1]], 1.0, -1.0)
         * flux[tri.elem_facets])
    twice = 2.0 * tri.elem_measure
    slope = F.sum(axis=1) / twice
    c_p = tri.elem_center[:, None] - v
    value = (F[:, :, None] * c_p).sum(axis=1) / twice[:, None]
    got = rt_interpolate_tri(tri, vec)
    assert bits_equal(got.beta[:, 0], slope)
    assert bits_equal(got.alpha, value - slope[:, None] * tri.elem_center)
    # the warning still fires past the limit
    with pytest.warns(UserWarning, match="nondegeneracy"):
        thin = build_tensor_mesh(gl, gl,
                                 [0.0, 0.9 / NONDEGENERACY_LIMIT, 1.0])
    assert thin.nondegeneracy > NONDEGENERACY_LIMIT


# -- non-finite problem data ---------------------------------------------------

def poisoned_problem(name=None):
    """A polynomial problem whose data name (if any) is NaN where x_0 > 0.6."""
    def poison(values, x):
        bad = x[..., 0] > 0.6
        return np.where(bad if values.ndim == bad.ndim else bad[..., None],
                        np.nan, values)

    data = dict(
        a=lambda x: 1.0 + x[..., 0] * x[..., 1],
        b=lambda x: np.array(x, copy=True),
        c=lambda x: 1.0 + x[..., 1],
        source=lambda x: x[..., 0] + x[..., 1],
        g=lambda x: x[..., 0] ** 2,
    )
    if name is not None:
        key = "source" if name == "f" else name
        clean = data[key]
        data[key] = lambda x: poison(clean(x), x)
    return custom_problem(
        dim=2, u=lambda x: x[..., 0] ** 2,
        grad_u=lambda x: np.stack([2.0 * x[..., 0], 0.0 * x[..., 1]],
                                  axis=-1),
        lap_u=lambda x: 2.0 + 0.0 * x[..., 0], **data,
        initial_gridlines=((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))


@pytest.mark.parametrize("name", ["a", "b", "c", "f", "g"])
@pytest.mark.parametrize("mesh, assembler", [
    (refine_midpoint(build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))),
     assemble),
    (build_uniform_parallel(4, 4), assemble_cr)], ids=["box", "tri"])
def test_non_finite_problem_data_is_named(mesh, assembler, name):
    with pytest.raises(ValueError, match=f"problem data {name} is not "
                                         "finite at x = "):
        assembler(mesh, poisoned_problem(name))
    assert isinstance(assembler(mesh, poisoned_problem()), LinearSystem)


# -- multigrid prolongation ----------------------------------------------------

def odd_perturbed_cube():
    """10 x 9 x 8 perturbed cells: axis 1 has an odd count, so its last
    coarse cell holds a single fine cell."""
    return perturb(build_tensor_mesh(*(np.linspace(0.0, 1.0, n + 1)
                                       for n in (10, 9, 8))), 0.2, seed=5)


def facet_means(mesh, q):
    pts, wts = facet_quadrature(mesh)
    return np.einsum("fq,fq->f", wts, q(pts)) / mesh.facet_measure


def parent_cells(coarse, fine, cells):
    """The coarse cells holding the fine cells ``cells``."""
    index = fine.elem_index[cells] // 2
    return np.ravel_multi_index(tuple(np.moveaxis(index, -1, 0)),
                                coarse.shape)


SPAN_POLYNOMIALS = {
    "1": lambda x: np.ones(x.shape[:-1]),
    "x0": lambda x: x[..., 0],
    "x1": lambda x: x[..., 1],
    "x2": lambda x: x[..., 2],
    "x0^2-x1^2": lambda x: x[..., 0] ** 2 - x[..., 1] ** 2,
    "x0^2-x2^2": lambda x: x[..., 0] ** 2 - x[..., 2] ** 2,
}


@pytest.mark.parametrize("name", SPAN_POLYNOMIALS)
def test_prolongation_reproduces_the_span_polynomials(name):
    q = SPAN_POLYNOMIALS[name]
    fine = odd_perturbed_cube()
    coarse = coarsen(fine)
    got = prolongation(coarse, fine) @ facet_means(coarse, q)[
        coarse.interior_facets]
    want = facet_means(fine, q)[fine.interior_facets]
    # P carries the coarse unknowns only: compare the rows whose parent
    # cells have no boundary facet, which see every dof they need
    touches = coarse.facet_boundary[coarse.elem_facets].any(axis=1)
    parents = parent_cells(coarse, fine,
                           fine.facet_elems[fine.interior_facets])
    rows = ~touches[parents].any(axis=1)
    assert rows.sum() > 100
    assert np.abs(got[rows] - want[rows]).max() \
        <= 1e-13 * max(1.0, np.abs(want).max())


def test_prolongation_takes_facet_means_of_the_parent_polynomials():
    # random coarse unknowns, zero boundary dofs: each fine unknown is the
    # quadrature mean over its facet of the coarse field on each parent
    # cell, averaged over the (one or two) parents
    fine = odd_perturbed_cube()
    coarse = coarsen(fine)
    inter = fine.interior_facets
    v = np.random.default_rng(2).normal(size=coarse.interior_facets.size)
    dofs = np.zeros(coarse.nf)
    dofs[coarse.interior_facets] = v
    field = reconstruct_field(coarse, dofs)
    pts, wts = facet_quadrature(fine, inter)
    parents = parent_cells(coarse, fine, fine.facet_elems[inter])
    means = [np.einsum("fq,fq->f", wts,
                       eval_at(field, pts, parents[:, side]))
             for side in (0, 1)]
    want = 0.5 * (means[0] + means[1]) / fine.facet_measure[inter]
    got = prolongation(coarse, fine) @ v
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
