import numpy as np
import pytest

from ncflux import elements
from ncflux.elements import (BrokenRT, cell_blocks, cell_moments,
                             cell_quadrature, cell_table, cr_basis,
                             facet_blocks, facet_quadrature, nc_basis,
                             reference_coeffs, reference_values,
                             span_polynomials, span_size)
from ncflux.mesh import (TensorMesh, TriMesh, build_uniform_parallel,
                         perturb, refine_midpoint)
from ncflux.problems import problem2
from ncflux.quadrature import moment_table, monomial_exponents, tensor_rule

from helpers import (basis_gradients, basis_values, cell_block_bytes,
                     cr_bary_by_inverse, divergence, eval_at,
                     jittered_parallel, nc_coeff_by_inverse, refined_box_mesh,
                     span_gradients, span_values, traced_peak)


def random_gridlines(dim, seed, n=3):
    rng = np.random.default_rng(seed)
    return [np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n))])
            for _ in range(dim)]


def random_mesh(dim, seed, n=3):
    return TensorMesh(random_gridlines(dim, seed, n))


# -- local span --------------------------------------------------------------

def polynomial_values(xi):
    """The members of span_polynomials at centered coordinates xi (..., d),
    term by term: (..., 2d)."""
    cols = []
    for poly in span_polynomials(xi.shape[-1]):
        col = 0.0
        for exps, coef in poly.items():
            term = coef
            for k, e in enumerate(exps):
                term = term * xi[..., k] ** e
            col = col + term
        cols.append(np.broadcast_to(col, xi.shape[:-1]))
    return np.stack(cols, axis=-1)


def test_span_size_is_twice_dimension():
    assert span_size(2) == 4
    assert span_size(3) == 6


def test_span_contains_expected_monomials():
    xi = np.array([[0.3, -0.2, 0.5]])
    vals = polynomial_values(xi)
    x, y, z = xi[0]
    expected = [1.0, x, y, z, x * x - y * y, x * x - z * z]
    assert np.allclose(vals[0], expected)


@pytest.mark.parametrize("dim", [2, 3])
def test_span_values_are_the_stacked_columns_bit_for_bit(dim):
    xi = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(5, 7, dim))
    sq0 = xi[..., 0] ** 2
    stacked = np.stack([np.ones(xi.shape[:-1])]
                       + [xi[..., k] for k in range(dim)]
                       + [sq0 - xi[..., k] ** 2 for k in range(1, dim)],
                       axis=-1)
    # the span of the kernels' product tensors and the tests' evaluator
    for vals in (polynomial_values(xi), span_values(xi)):
        assert vals.shape == stacked.shape
        assert np.array_equal(vals, stacked)


def test_span_gradient_of_quadratic_member():
    xi = np.array([[0.3, -0.2, 0.5]])
    g = span_gradients(xi)
    x, y, z = xi[0]
    # gradient of x^2 - y^2 is (2x, -2y, 0)
    assert np.allclose(g[0, :, 4], [2 * x, -2 * y, 0.0])
    assert np.allclose(g[0, :, 5], [2 * x, 0.0, -2 * z])


# -- dof-dual bases on box meshes --------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_mean_basis_duality_by_independent_facet_quadrature(dim):
    mesh = random_mesh(dim, seed=dim)
    tables = nc_basis(mesh, "mean")
    pts, wts = facet_quadrature(mesh)
    for e in range(mesh.ne):
        facets = mesh.elem_facets[e]
        # facet means of the local basis functions should be the identity
        xi = pts[facets] - mesh.elem_center[e]
        vals = span_values(xi) @ tables[e]          # (ndof, nq, ndof)
        means = np.einsum("fq,fqj->fj", wts[facets],
                          vals) / mesh.facet_measure[facets][:, None]
        assert np.allclose(means, np.eye(2 * dim), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_midpoint_basis_duality(dim):
    mesh = random_mesh(dim, seed=10 + dim)
    tables = nc_basis(mesh, "midpoint")
    mids = mesh.facet_midpoint[mesh.elem_facets]           # (ne, ndof, d)
    vals = basis_values(mesh, tables, mids)        # (ne, ndof, ndof)
    assert np.allclose(vals, np.eye(2 * dim), atol=1e-12)


def test_duality_over_random_aspect_ratios():
    rng = np.random.default_rng(7)
    gx = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 10))])
    gy = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 10))])
    mesh = TensorMesh((gx, gy))                            # 100 elements
    tables = nc_basis(mesh, "midpoint")
    mids = mesh.facet_midpoint[mesh.elem_facets]
    vals = basis_values(mesh, tables, mids)
    assert np.abs(vals - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("kind", ["mean", "midpoint"])
def test_partition_of_unity(kind):
    mesh = TensorMesh(perturb(refine_midpoint(((0.0, 0.5, 1.0),) * 2), 0.2,
                              seed=1))
    tables = nc_basis(mesh, kind)
    pts, _ = cell_quadrature(mesh)
    vals = basis_values(mesh, tables, pts)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-12)


def test_basis_tables_allocate_one_block_at_a_time(monkeypatch):
    mesh = refined_box_mesh(problem2(), 4096)
    monkeypatch.setattr(elements, "BLOCK_POINTS", 256 * 4 ** 3)
    block_bytes = cell_block_bytes(mesh)
    rows = cell_blocks(mesh)[0]
    # a block is one cell block's mapped quadrature points and weights.
    # The tables of that block's cells take 0.14 blocks and peak at 0.24
    # with their half-extents and d x d matrices; the tables of the whole
    # mesh take 2.25 blocks
    for kind in ("mean", "midpoint"):
        peak = traced_peak(nc_basis, mesh, kind, rows)
        assert nc_basis(mesh, kind, rows).nbytes == 0.140625 * block_bytes
        assert peak <= 0.3 * block_bytes


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["mean", "midpoint"])
def test_basis_tables_of_rows_are_the_rows_of_the_whole_mesh(dim, kind):
    mesh = TensorMesh(perturb(refine_midpoint(random_gridlines(dim, seed=69)),
                              0.2, seed=70))
    whole = nc_basis(mesh, kind)
    assert whole.shape == (mesh.ne, span_size(dim), 2 * dim)
    picked = np.random.default_rng(71).permutation(mesh.ne)[:mesh.ne // 3]
    for rows in (slice(3, mesh.ne - 2), picked, slice(None)):
        assert nc_basis(mesh, kind, rows).tobytes() == whole[rows].tobytes()


@pytest.mark.parametrize("dim, cells, facets, n", [(2, 2048, 8192, 64),
                                                   (3, 512, 2048, 10)])
def test_box_blocks_hold_the_point_budget(monkeypatch, dim, cells, facets,
                                          n):
    mesh = TensorMesh([np.linspace(0.0, 1.0, n + 1)] * dim)
    assert mesh.ne > cells and mesh.nf > facets
    nq = cell_quadrature(mesh, slice(0, 1))[1].size
    assert cells * nq == elements.BLOCK_POINTS
    assert cell_blocks(mesh) == [slice(lo, min(lo + cells, mesh.ne))
                                 for lo in range(0, mesh.ne, cells)]
    # the first n facets (the boundary ones, say) within one block's
    # budget are one block
    assert facets * elements.DATA_RULE ** (dim - 1) <= elements.BLOCK_POINTS
    assert facet_blocks(mesh, facets) == [slice(0, facets)]
    # a budget below one element's points still takes one at a time
    monkeypatch.setattr(elements, "BLOCK_POINTS", 1)
    assert cell_blocks(mesh)[:2] == [slice(0, 1), slice(1, 2)]
    assert len(facet_blocks(mesh)) == mesh.nf
    assert facet_blocks(mesh, facets)[:2] == [slice(0, 1), slice(1, 2)]


@pytest.mark.parametrize("dim, cells, facets, n", [(2, 3640, 10922, 80),
                                                   (3, 1213, 3640, 12)])
def test_data_rule_blocks_hold_the_point_budget(dim, cells, facets, n):
    mesh = TensorMesh([np.linspace(0.0, 1.0, n + 1)] * dim)
    assert mesh.ne > cells and mesh.nf > facets
    nq = elements.DATA_RULE ** dim
    assert cell_quadrature(mesh, slice(0, 1), elements.DATA_RULE)[1].size \
        == nq
    assert facet_quadrature(mesh, slice(0, 1))[1].size \
        == nq // elements.DATA_RULE
    assert cells == elements.BLOCK_POINTS // nq
    assert facets == elements.BLOCK_POINTS // (nq // elements.DATA_RULE)
    for blocks, size, rows in (
            (cell_blocks(mesh, elements.DATA_RULE), cells, mesh.ne),
            (facet_blocks(mesh), facets, mesh.nf)):
        assert blocks == [slice(lo, min(lo + size, rows))
                          for lo in range(0, rows, size)]


@pytest.mark.parametrize("dim", [2, 3])
def test_moments_and_reference_coefficients_build_no_tables(monkeypatch,
                                                            dim):
    mesh = TensorMesh(perturb(refine_midpoint(random_gridlines(dim, seed=67)),
                              0.2, seed=68))
    nq = tensor_rule(dim, elements.NORM_RULE).npoints

    def no_tables(*args):
        raise AssertionError("basis tables were built")

    monkeypatch.setattr(elements, "nc_basis", no_tables)
    cell_moments(mesh, np.ones((mesh.ne, 1, nq)), degree=2)
    reference_coeffs(mesh, np.ones((mesh.ne, span_size(dim))))


def test_cell_moments_match_an_einsum_over_points():
    rng = np.random.default_rng(61)
    mesh = TensorMesh(perturb(refine_midpoint(random_gridlines(3, seed=62)),
                              0.2, seed=63))
    pts, wts = cell_quadrature(mesh)
    xi = pts - mesh.elem_center[:, None, :]
    alpha = monomial_exponents(3, 4)
    xi_alpha = np.prod(xi[:, :, None, :] ** alpha, axis=3)
    data = rng.normal(size=(mesh.ne, 2, pts.shape[1]))
    ref = np.einsum("eq,emq,eqa->ema", wts, data, xi_alpha)
    assert np.abs(cell_moments(mesh, data, degree=4) - ref).max() <= (
        1e-13 * np.abs(ref).max())
    # samples of one: the geometry moments, int_K xi^alpha
    geo = np.einsum("eq,eqa->ea", wts, xi_alpha)
    rows = slice(3, 11)
    ones = np.ones(wts[rows].shape)[:, None, :]
    got = cell_moments(mesh, ones, rows, 4)[:, 0]
    assert np.abs(got - geo[rows]).max() <= 1e-13 * np.abs(geo).max()


@pytest.mark.parametrize("dim, degree", [(2, 4), (3, 2)])
def test_cell_moments_factor_matches_the_power_formula(dim, degree):
    mesh = TensorMesh(perturb(refine_midpoint(
        random_gridlines(dim, seed=64, n=4)), 0.2, seed=65))
    ext = mesh.elem_ext
    h = 0.5 * ext
    exps = monomial_exponents(dim, degree)
    nq = tensor_rule(dim, elements.NORM_RULE).npoints
    ones = np.ones((mesh.ne, 1, nq))
    # the samples of one times the table, summed as cell_moments sums it
    ref = (np.prod(ext, axis=1)[:, None]
           * np.prod(h[:, None, :] ** exps, axis=2)
           * (ones[:1, 0] @ moment_table(dim, degree, elements.NORM_RULE)))
    got = cell_moments(mesh, ones, degree=degree)[:, 0]
    assert np.all(np.abs(got - ref)
                  <= 4 * np.finfo(float).eps * np.abs(ref))
    # blocks of 7 rows give the bits of one call over all rows
    data = np.random.default_rng(66).normal(size=(mesh.ne, 2, nq))
    for samples in (ones, data[:, :1], data):
        whole = cell_moments(mesh, samples, degree=degree)
        parts = np.concatenate([
            cell_moments(mesh, samples[rows], rows, degree)
            for rows in (slice(lo, lo + 7) for lo in range(0, mesh.ne, 7))])
        assert whole.tobytes() == parts.tobytes()


def aspect_mesh(dim):
    """Box mesh whose cells have every side ratio from 1:8 to 8:1."""
    gl = np.cumsum([0.0, 1.0, 8.0, 3.0, 5.0]) / 17.0
    return TensorMesh([gl] * dim)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["mean", "midpoint"])
def test_closed_form_tables_match_the_inverted_moment_matrices(dim, kind):
    mesh = aspect_mesh(dim)
    ext = mesh.elem_ext
    assert (ext.max(axis=1) / ext.min(axis=1)).max() == pytest.approx(8.0)
    got = nc_basis(mesh, kind)
    ref = nc_coeff_by_inverse(mesh, kind)
    rel = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert rel.max() <= 1e-14


def thin_triangles(n, height=0.05, seed=8):
    """n separate triangles of base 1 and the given height, rotated and
    moved at random (aspect 1:20 by default)."""
    rng = np.random.default_rng(seed)
    verts = []
    for _ in range(n):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)],
                        [np.sin(ang), np.cos(ang)]])
        local = np.array([[0.0, 0.0], [1.0, 0.0],
                          [rng.uniform(0.0, 1.0), height]])
        verts.append(rng.uniform(-1.0, 1.0, 2) + local @ rot.T)
    return TriMesh(np.concatenate(verts), np.arange(3 * n).reshape(n, 3))


@pytest.mark.parametrize("mesh", [jittered_parallel(6, 5, amount=0.05),
                                  thin_triangles(64)],
                         ids=["jittered", "thin"])
def test_closed_form_barycentrics_match_the_vertex_matrix_inverse(mesh):
    # cr_basis gives -2 grad lambda_j, the gradient rows of the tables
    got = cr_basis(mesh)
    ref = -2.0 * cr_bary_by_inverse(mesh)[:, 1:, :]
    rel = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(
        axis=(1, 2))
    assert rel.max() <= 1e-14
    # -2 times the cofactors over 2|T|, bit for bit
    v = mesh.vertices[mesh.triangles]
    x, y = v[..., 0], v[..., 1]
    nxt, prv = [1, 2, 0], [2, 0, 1]
    cofactors = np.stack([y[:, nxt] - y[:, prv], x[:, prv] - x[:, nxt]],
                         axis=1)
    assert np.array_equal(
        got, -2.0 * (cofactors / (2.0 * mesh.elem_measure[:, None, None])))


def test_unknown_dof_kind_rejected():
    mesh = TensorMesh(((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError):
        nc_basis(mesh, "nodal")


@pytest.mark.parametrize("dim", [1, 4])
def test_tables_only_in_two_and_three_dimensions(dim):
    mesh = TensorMesh([(0.0, 1.0)] * dim)
    with pytest.raises(ValueError, match="dimension 2 or 3"):
        nc_basis(mesh)


def test_mean_basis_element_integral_identity():
    # For the basis function of a facet E with normal along axis 0,
    # the element integral is |K| l_2^2 / (2 (l_1^2 + l_2^2)).
    mesh = random_mesh(2, seed=3)
    tables = nc_basis(mesh, "mean")
    pts, wts = cell_quadrature(mesh)
    vals = basis_values(mesh, tables, pts)
    integral = np.einsum("eq,eqj->ej", wts, vals)
    l1 = mesh.elem_ext[:, 0]
    l2 = mesh.elem_ext[:, 1]
    expected = mesh.elem_measure * l2 ** 2 / (2.0 * (l1 ** 2 + l2 ** 2))
    assert np.allclose(integral[:, 0], expected, atol=1e-13)
    assert np.allclose(integral[:, 1], expected, atol=1e-13)


def test_mean_basis_reproduces_coordinate_on_unit_square():
    mesh = TensorMesh(((0.0, 1.0), (0.0, 1.0)))
    tables = nc_basis(mesh, "mean")
    # facet means of x1: 0 and 1 on the axis-0 facets, 1/2 on the others
    dofs = mesh.facet_midpoint[mesh.elem_facets[0], 0]
    coeff = tables[0] @ dofs
    pts, _ = cell_quadrature(mesh)
    xi = pts - mesh.elem_center[:, None, :]
    vals = span_values(xi)[0] @ coeff
    assert np.allclose(vals, pts[0, :, 0], atol=1e-13)


def test_midpoint_interpolation_of_quadratic_member():
    mesh = random_mesh(2, seed=5)
    tables = nc_basis(mesh, "midpoint")

    def func(x):
        return x[..., 0] ** 2 - x[..., 1] ** 2

    dofs = func(mesh.facet_midpoint)
    coeff = np.einsum("emj,ej->em", tables, dofs[mesh.elem_facets])
    pts, _ = cell_quadrature(mesh)
    xi = pts - mesh.elem_center[:, None, :]
    vals = np.einsum("eqm,em->eq", span_values(xi), coeff)
    assert np.allclose(vals, func(pts), atol=1e-11)


def test_mean_to_midpoint_change_of_basis_well_conditioned():
    mesh = TensorMesh(((0.0, 0.4), (0.0, 0.7)))
    mean = nc_basis(mesh, "mean")
    mid = nc_basis(mesh, "midpoint")
    change = np.linalg.solve(mid[0], mean[0])
    assert np.linalg.cond(change) < 100.0


def test_basis_gradient_matches_finite_differences():
    mesh = random_mesh(2, seed=8)
    tables = nc_basis(mesh, "mean")
    rng = np.random.default_rng(0)
    pts = mesh.elem_center[:, None, :] + 0.1 * mesh.elem_ext[:, None, :] \
        * rng.uniform(-1.0, 1.0, size=(mesh.ne, 3, 2))
    g = basis_gradients(mesh, tables, pts)
    h = 1e-6
    for k in range(2):
        dx = np.zeros(2)
        dx[k] = h
        fd = (basis_values(mesh, tables, pts + dx)
              - basis_values(mesh, tables, pts - dx)) / (2 * h)
        assert np.abs(fd - g[:, :, k, :]).max() < 1e-6


def test_constant_representation_has_zero_gradient():
    mesh = random_mesh(2, seed=9)
    tables = nc_basis(mesh, "mean")
    pts, _ = cell_quadrature(mesh)
    g = basis_gradients(mesh, tables, pts)
    # all-ones dof vector represents the constant 1
    total = g.sum(axis=-1)
    assert np.abs(total).max() < 1e-12


# -- CR basis ----------------------------------------------------------------

def table_values(mesh, grad, pts):
    """The basis at pts (ne, nq, 2) of the triangles of mesh, (ne, nq, 3),
    from cr_basis's gradients grad: each basis function is affine and
    1 - 2/3 at the centroid, where every lambda_j is 1/3."""
    rel = pts - mesh.elem_center[:, None, :]
    return 1.0 / 3.0 + rel @ grad


def test_cr_basis_is_one_minus_twice_barycentric():
    mesh = build_uniform_parallel(2, 2)
    grad = cr_basis(mesh)
    rng = np.random.default_rng(2)
    lam = rng.dirichlet((1.0, 1.0, 1.0), size=(mesh.ne, 4))
    pts = np.einsum("tqv,tvc->tqc", lam, mesh.vertices[mesh.triangles])
    vals = table_values(mesh, grad, pts)
    assert np.allclose(vals, 1.0 - 2.0 * lam, atol=1e-12)
    assert np.allclose(vals.sum(axis=-1), 1.0, atol=1e-12)


def test_cr_basis_value_at_own_edge_midpoint():
    mesh = build_uniform_parallel(1, 1)
    grad = cr_basis(mesh)
    mids = mesh.facet_midpoint[mesh.elem_facets]  # (ne, 3, 2)
    vals = table_values(mesh, grad, mids)
    assert np.allclose(vals, np.eye(3), atol=1e-13)


def test_cr_gradients_are_constant():
    mesh = build_uniform_parallel(2, 2)
    grad = cr_basis(mesh)
    # values must be affine: second differences along any direction vanish
    rng = np.random.default_rng(3)
    base = mesh.elem_center[:, None, :]
    d = rng.uniform(-0.1, 0.1, size=(1, 5, 2))
    v0 = table_values(mesh, grad, base - d)
    v1 = table_values(mesh, grad, base)
    v2 = table_values(mesh, grad, base + d)
    assert np.abs(v0 - 2 * v1 + v2).max() < 1e-12


# -- broken flux polynomials -------------------------------------------------

def test_broken_rt_constant_field():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 1.0)))
    field = BrokenRT(mesh, alpha=np.tile([2.0, -1.0], (mesh.ne, 1)),
                     beta=np.zeros((mesh.ne, 2)))
    pts = mesh.elem_center[:, None, :]
    assert np.allclose(eval_at(field, pts), [2.0, -1.0])
    assert np.allclose(divergence(field), 0.0)


def test_broken_rt_divergence_free_member():
    mesh = TensorMesh(((0.0, 1.0), (0.0, 1.0)))
    field = BrokenRT(mesh, alpha=np.zeros((1, 2)),
                     beta=np.array([[1.0, -1.0]]))
    assert np.allclose(divergence(field), 0.0)


def test_broken_rt_divergence_constant_over_element():
    # each component is affine, so one-sided differences recover beta
    # exactly and the divergence cannot vary over the element
    mesh = random_mesh(2, seed=11)
    rng = np.random.default_rng(4)
    field = BrokenRT(mesh, alpha=rng.normal(size=(mesh.ne, 2)),
                     beta=rng.normal(size=(mesh.ne, 2)))
    pts, _ = cell_quadrature(mesh)
    # the values at the rule's points come from the reference table
    vals = reference_values(field.reference_coeffs(), cell_table(mesh))
    h = 1e-3
    div = np.zeros(pts.shape[:2])
    for k in range(2):
        dx = np.zeros(2)
        dx[k] = h
        div += (eval_at(field, pts + dx)[..., k] - vals[..., k]) / h
    assert np.abs(div - divergence(field)[:, None]).max() < 1e-10
    assert (div.max(axis=1) - div.min(axis=1)).max() < 1e-12


def test_broken_rt_midpoint_traces_sides():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 1.0)))
    field = BrokenRT(mesh, alpha=np.array([[1.0, 0.0], [2.0, 0.0]]),
                     beta=np.zeros((2, 2)))
    traces = field.midpoint_traces()
    fid = int(mesh.interior_facets[0])
    assert traces[fid, 0, 0] == pytest.approx(1.0)   # lower element
    assert traces[fid, 1, 0] == pytest.approx(2.0)   # upper element
    bid = int(mesh.boundary_facets[0])
    missing = 0 if mesh.facet_elems[bid, 0] < 0 else 1
    assert np.all(traces[bid, missing] == 0.0)


def test_broken_rt_arithmetic():
    mesh = TensorMesh(((0.0, 1.0), (0.0, 1.0)))
    a = BrokenRT(mesh, np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    b = BrokenRT(mesh, np.array([[0.5, 0.5]]), np.array([[1.0, 1.0]]))
    s = a - b
    assert np.allclose(s.alpha, [[0.5, 1.5]])
    assert np.allclose(s.beta, [[2.0, 3.0]])
    # a sum is a difference with the negated field
    assert np.allclose((a - b.scaled_by(np.array([-1.0]))).beta,
                       [[4.0, 5.0]])
    scaled = a.scaled_by(np.array([2.0]))
    assert np.allclose(scaled.alpha, [[2.0, 4.0]])


# -- batched quadrature ------------------------------------------------------

@pytest.mark.parametrize("mesh_factory, nq", [
    (lambda: random_mesh(3, seed=12), 64),
    (lambda: build_uniform_parallel(3, 2), 7),
], ids=["box", "tri"])
def test_cell_quadrature_weights_sum_to_measures(mesh_factory, nq):
    mesh = mesh_factory()
    pts, wts = cell_quadrature(mesh)
    assert np.allclose(wts.sum(axis=1), mesh.elem_measure, atol=1e-14)
    assert pts.shape == (mesh.ne, nq, mesh.dim)


@pytest.mark.parametrize("mesh_factory", [
    lambda: random_mesh(2, seed=13),
    lambda: jittered_parallel(4, 3, amount=0.05, seed=13),
], ids=["box", "tri"])
def test_facet_quadrature_weights_sum_to_measures(mesh_factory):
    mesh = mesh_factory()
    pts, wts = facet_quadrature(mesh)
    assert pts.shape == (mesh.nf, elements.DATA_RULE, 2)
    assert np.allclose(wts.sum(axis=1), mesh.facet_measure, atol=1e-13)
    # points lie on their facet, inside it
    rel = pts - mesh.facet_midpoint[:, None, :]
    across = np.einsum("fqd,fd->fq", rel, mesh.facet_normal)
    assert np.abs(across).max() < 1e-14
    along = np.hypot(rel[..., 0], rel[..., 1])
    assert (along < 0.5 * mesh.facet_measure[:, None]).all()


@pytest.mark.parametrize("dim", [2, 3, "tri"])
def test_box_quadrature_of_rows_is_the_whole_mesh_rule_sliced(dim):
    if dim == "tri":
        mesh = jittered_parallel(4, 3, amount=0.05, seed=15)
    else:
        mesh = TensorMesh(perturb(random_gridlines(dim, seed=14, n=4), 0.2,
                                  seed=15))
    cells, facets = cell_quadrature(mesh), facet_quadrature(mesh)
    for rows in (slice(5, 17), np.array([9, 2, 13, 2])):
        for whole, part in ((cells, cell_quadrature(mesh, rows)),
                            (facets, facet_quadrature(mesh, rows))):
            assert np.array_equal(part[0], whole[0][rows])
            assert np.array_equal(part[1], whole[1][rows])
    b = mesh.boundary_facets
    for whole, part in zip(facets, facet_quadrature(mesh, b)):
        assert np.array_equal(part, whole[b])
