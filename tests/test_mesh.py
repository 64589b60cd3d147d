import warnings

import numpy as np
import pytest

from ncflux.mesh import (TensorMesh, TriMesh, build_uniform_parallel,
                         coarsen, perturb, refine_midpoint)

from ncflux.problems import problem1

from helpers import (every_other_line, jittered_parallel, midpoints_inserted,
                     seeded_shifts)

GRID_X = (0.0, 0.4, 0.8, 1.0)
GRID_Y = (0.0, 0.7, 1.0)


def test_six_element_mesh_counts():
    mesh = TensorMesh((GRID_X, GRID_Y))
    assert mesh.ne == 6
    assert mesh.nf == 17


def test_single_element_mesh_all_boundary():
    mesh = TensorMesh(((0.0, 1.0), (0.0, 1.0)))
    assert mesh.ne == 1
    assert mesh.nf == 4
    assert mesh.facet_boundary.all()


def test_three_dim_mesh_counts():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 0.6, 1.0), (0.0, 0.4, 1.0)))
    assert mesh.dim == 3
    assert mesh.ne == 8


def test_interior_facets_have_two_elements_boundary_one():
    mesh = TensorMesh((GRID_X, GRID_Y))
    inter = mesh.facet_elems[mesh.interior_facets]
    assert (inter >= 0).all()
    bnd = mesh.facet_elems[mesh.boundary_facets]
    assert ((bnd >= 0).sum(axis=1) == 1).all()


def test_element_facet_table_is_consistent():
    mesh = TensorMesh((GRID_X, GRID_Y))
    for e in range(mesh.ne):
        for f in mesh.elem_facets[e]:
            assert e in mesh.facet_elems[f]
    # low/high facet ordering matches coordinates along each axis
    for k in range(mesh.dim):
        lo = mesh.facet_midpoint[mesh.elem_facets[:, 2 * k], k]
        hi = mesh.facet_midpoint[mesh.elem_facets[:, 2 * k + 1], k]
        assert np.allclose(lo, mesh.elem_lo[:, k])
        assert np.allclose(hi, mesh.elem_lo[:, k] + mesh.elem_ext[:, k])


def test_facet_numbering():
    # facet ids run by normal axis, then gridline position along it, then
    # the cell of the other axes in C order; nested dissection keeps this
    # order inside its leaves, so the reports depend on it
    meshes = [TensorMesh(perturb([np.linspace(0.0, 1.0, n + 1)
                                  for n in shape], 0.3, seed=3))
              for shape in [(3,), (3, 2), (2, 3, 4)]]
    for mesh in meshes:
        d, shape = mesh.dim, mesh.shape
        f = 0
        for k in range(d):
            other = [j for j in range(d) if j != k]
            for p in range(shape[k] + 1):
                for cross in np.ndindex(*(shape[j] for j in other)):
                    cell = np.empty(d, dtype=int)
                    cell[other] = cross
                    assert mesh.facet_axis[f] == k
                    assert mesh.facet_midpoint[f, k] == mesh.gridlines[k][p]
                    for c, j in enumerate(other):
                        g = mesh.gridlines[j]
                        assert mesh.facet_midpoint[f, j] == 0.5 * (
                            g[cross[c]] + g[cross[c] + 1])
                    # (lower, upper) cells along axis k, -1 where missing
                    for side, i in ((0, p - 1), (1, p)):
                        e = -1
                        if 0 <= i < shape[k]:
                            cell[k] = i
                            e = np.ravel_multi_index(cell, shape)
                            assert mesh.elem_facets[e, 2 * k + 1 - side] == f
                        assert mesh.facet_elems[f, side] == e
                    f += 1
        assert f == mesh.nf


def facet_patch(mesh, facet_id):
    """The elements next to a facet (two interior, one boundary), read
    from facet_elems."""
    return {int(e) for e in mesh.facet_elems[facet_id] if e >= 0}


def test_patch_of_facets():
    mesh = TensorMesh(((0.0, 0.5, 1.0), (0.0, 1.0)))
    fid = int(mesh.interior_facets[0])
    assert facet_patch(mesh, fid) == {0, 1}
    bid = int(mesh.boundary_facets[0])
    assert len(facet_patch(mesh, bid)) == 1


def test_patch_union_covers_axis_neighbors():
    mesh = TensorMesh(((0, 1, 2, 3), (0, 1, 2, 3)))
    for e in range(mesh.ne):
        union = set()
        for f in mesh.elem_facets[e]:
            union |= facet_patch(mesh, int(f))
        idx = mesh.elem_index[e]
        expected = {e}
        for k in range(2):
            for step in (-1, 1):
                j = idx.copy()
                j[k] += step
                if 0 <= j[k] < mesh.shape[k]:
                    expected.add(int(j[0] * mesh.shape[1] + j[1]))
        assert union == expected


def test_refine_multiplies_element_count():
    mesh = TensorMesh((GRID_X, GRID_Y))
    assert TensorMesh(refine_midpoint(mesh.gridlines)).ne == 24
    cube = ((0.0, 0.5, 1.0), (0.0, 0.6, 1.0), (0.0, 0.4, 1.0))
    assert TensorMesh(refine_midpoint(cube)).ne == 64


def test_refine_single_element_inserts_midpoint():
    fine = TensorMesh(refine_midpoint(((0.0, 1.0), (0.0, 1.0))))
    assert fine.ne == 4
    assert np.allclose(fine.gridlines[0], (0.0, 0.5, 1.0))


def test_refine_halves_intervals_exactly():
    fine = refine_midpoint(((0.0, 0.25, 1.0), (0.0, 1.0)))
    assert np.array_equal(fine[0], np.array([0.0, 0.125, 0.25, 0.625, 1.0]))


@pytest.mark.parametrize("cells", [(4, 4), (5, 2), (3, 7, 2), (1, 6, 4)])
def test_coarsen_nests_the_coarse_cells(cells):
    lines = perturb([np.linspace(0.0, 1.0, n + 1) for n in cells], 0.2,
                    seed=sum(cells))
    coarse = coarsen(lines)
    for g, c in zip(lines, coarse):
        n = g.size - 1
        # every other gridline, and always the last one
        assert np.array_equal(c, np.unique(np.append(g[::2], g[-1])))
        assert c.size - 1 == (n + 1) // 2
        # coarse cell j holds fine cells 2j and 2j + 1
        i = np.arange(n)
        assert np.all(c[i // 2] <= g[i]) and np.all(g[i + 1] <= c[i // 2 + 1])


def test_perturb_zero_is_identity():
    mesh = TensorMesh((GRID_X, GRID_Y))
    out = perturb(mesh.gridlines, 0.0, seed=5)
    for g0, g1 in zip(mesh.gridlines, out):
        assert np.array_equal(g0, g1)


def test_perturb_keeps_mesh_valid():
    lines = refine_midpoint(refine_midpoint(((0.0, 0.5, 1.0),
                                             (0.0, 0.5, 1.0))))
    out = TensorMesh(perturb(lines, 0.2, seed=3))
    for g in out.gridlines:
        assert np.all(np.diff(g) > 0)
        assert g[0] == 0.0 and g[-1] == 1.0
    assert out.nondegeneracy <= 20.0


def test_perturb_is_deterministic_and_pure():
    mesh = TensorMesh((GRID_X, GRID_Y))
    before = [g.copy() for g in mesh.gridlines]
    a = perturb(mesh.gridlines, 0.2, seed=42)
    b = perturb(mesh.gridlines, 0.2, seed=42)
    for ga, gb in zip(a, b):
        assert np.array_equal(ga, gb)
    for g0, g1 in zip(before, mesh.gridlines):
        assert np.array_equal(g0, g1)
    c = perturb(mesh.gridlines, 0.2, seed=43)
    assert any(not np.array_equal(ga, gc) for ga, gc in zip(a, c))


def test_perturb_rejects_half_or_more():
    with pytest.raises(ValueError):
        perturb((GRID_X, GRID_Y), 0.5, seed=0)


def test_measures_sum_to_domain_measure():
    mesh = TensorMesh((GRID_X, GRID_Y))
    assert abs(mesh.elem_measure.sum() - 1.0) < 1e-12
    out = TensorMesh(perturb(refine_midpoint(mesh.gridlines), 0.2, seed=9))
    assert abs(out.elem_measure.sum() - 1.0) < 1e-12


def hierarchy_inputs():
    """The same kinds of gridlines a study passes: a problem's tuples, a
    perturbed mesh's read-only arrays, and writable arrays."""
    mesh = TensorMesh(perturb(refine_midpoint(problem1().initial_gridlines),
                              0.2, seed=7))
    return {"problem_tuples": problem1().initial_gridlines,
            "mesh_gridlines": mesh.gridlines,
            "writable_arrays": [np.array(g) for g in mesh.gridlines]}


@pytest.mark.parametrize("source", ["problem_tuples", "mesh_gridlines",
                                    "writable_arrays"])
@pytest.mark.parametrize("operation, expected", [
    (refine_midpoint, midpoints_inserted),
    (coarsen, every_other_line),
    (lambda g: perturb(g, 0.3, seed=11),
     lambda g: seeded_shifts(g, 0.3, seed=11)),
], ids=["refine_midpoint", "coarsen", "perturb"])
def test_hierarchy_maps_gridlines_to_new_gridlines(source, operation,
                                                   expected, monkeypatch):
    lines = hierarchy_inputs()[source]
    before = [np.array(g) for g in lines]

    def no_mesh(self, gridlines):
        raise AssertionError("a TensorMesh was built")

    monkeypatch.setattr(TensorMesh, "__init__", no_mesh)
    out = operation(lines)
    assert isinstance(out, tuple) and len(out) == len(lines)
    for g, new, want, old in zip(lines, out, expected(before), before):
        assert isinstance(new, np.ndarray) and new.dtype == np.float64
        # the same bits as the first-principles values, in a new array
        assert new.tobytes() == want.tobytes()
        assert not np.shares_memory(new, np.asarray(g))
        assert np.asarray(g).tobytes() == old.tobytes()


def test_nondegeneracy_warning_names_the_caller():
    lines = ((0.0, 0.001, 1.0), (0.0, 0.5, 1.0))
    with pytest.warns(UserWarning, match="nondegeneracy") as caught:
        TensorMesh(perturb(refine_midpoint(lines), 0.2, seed=0))
    assert [w.filename for w in caught] == [__file__]


def test_h_is_largest_interval():
    mesh = TensorMesh((GRID_X, GRID_Y))
    assert mesh.h == pytest.approx(0.7)


def test_nondegeneracy_warning():
    with pytest.warns(UserWarning, match="nondegeneracy"):
        TensorMesh(((0.0, 0.001, 1.0), (0.0, 0.5, 1.0)))


def test_gridlines_must_increase():
    with pytest.raises(ValueError, match="axis 0: .* strictly increase"):
        TensorMesh(((0.0, 0.5, 0.5, 1.0), (0.0, 1.0)))
    # an infinite line would give an infinite element measure
    for lines in ((0.0, np.inf), (0.0, np.nan, 1.0), (-np.inf, 0.0, 1.0)):
        with pytest.raises(ValueError, match="axis 1: .* must be finite"):
            TensorMesh(((0.0, 1.0), lines))


def test_triangle_mesh_counts():
    mesh = build_uniform_parallel(1, 1)
    assert mesh.ne == 2
    assert mesh.nf == 5
    assert build_uniform_parallel(2, 2).ne == 8


def test_triangle_adjacency():
    mesh = build_uniform_parallel(2, 2)
    inter = mesh.facet_elems[mesh.interior_facets]
    assert (inter >= 0).all()
    assert (inter[:, 0] < inter[:, 1]).all()
    bnd = mesh.facet_elems[mesh.boundary_facets]
    assert (bnd[:, 0] >= 0).all() and (bnd[:, 1] < 0).all()


def test_triangles_oriented_counterclockwise():
    # input has one clockwise triangle; the mesh reorients it
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = TriMesh(verts, np.array([[0, 2, 1]]))
    t = mesh.triangles[0]
    e1 = verts[t[1]] - verts[t[0]]
    e2 = verts[t[2]] - verts[t[0]]
    assert e1[0] * e2[1] - e1[1] * e2[0] > 0
    assert mesh.elem_measure[0] == pytest.approx(0.5)


def test_meshes_leave_the_caller_arrays_alone():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]], dtype=np.int64)
    mesh = TriMesh(verts, tris)
    assert tris.tolist() == [[0, 2, 1]]
    assert tris.flags.writeable and verts.flags.writeable
    assert mesh.triangles.tolist() == [[0, 1, 2]]
    # the arrays of a built mesh are read-only and can seed another mesh
    base = build_uniform_parallel(3, 2)
    again = TriMesh(base.vertices, base.triangles)
    assert np.array_equal(again.triangles, base.triangles)
    assert np.array_equal(again.edges, base.edges)
    grid = np.array(GRID_X)
    TensorMesh((grid, GRID_Y))
    assert grid.flags.writeable


def test_edges_are_the_sorted_distinct_vertex_pairs():
    base = build_uniform_parallel(4, 3)
    perm = np.random.default_rng(0).permutation(base.ne)
    mesh = TriMesh(base.vertices, base.triangles[perm])
    t = mesh.triangles
    pairs = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1)
    edges, inverse = np.unique(np.sort(pairs.reshape(-1, 2), axis=1),
                               axis=0, return_inverse=True)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.elem_facets.ravel(), inverse.ravel())


def test_uniform_parallel_cells_split_along_one_diagonal():
    mesh = build_uniform_parallel(2, 3)
    # cell (i, j) = (1, 2) is cell 5; vertex (i, j) has id i * 4 + j
    v00, v10, v01, v11 = 6, 10, 7, 11
    assert mesh.triangles[10].tolist() == [v00, v10, v11]
    assert mesh.triangles[11].tolist() == [v00, v11, v01]


def test_local_edge_opposite_local_vertex():
    mesh = build_uniform_parallel(2, 2)
    for t in range(mesh.ne):
        for j in range(3):
            edge = mesh.edges[mesh.elem_facets[t, j]]
            assert mesh.triangles[t, j] not in edge


def test_uniform_parallel_pairs_form_parallelograms():
    mesh = build_uniform_parallel(4, 4)
    for e in mesh.interior_facets:
        t0, t1 = mesh.facet_elems[e]
        opp = []
        for t in (t0, t1):
            j = int(np.flatnonzero(mesh.elem_facets[t] == e)[0])
            opp.append(mesh.vertices[mesh.triangles[t, j]])
        # opposite vertices reflect through the edge midpoint
        assert np.allclose(0.5 * (opp[0] + opp[1]), mesh.facet_midpoint[e],
                           atol=1e-12)


def test_triangle_mesh_h_is_longest_edge():
    mesh = build_uniform_parallel(2, 2)
    assert mesh.h == pytest.approx(np.hypot(0.5, 0.5))


def test_triangle_mesh_validation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        TriMesh(verts, np.array([[0, 1, 3]]))
    with pytest.raises(ValueError):
        TriMesh(verts, np.array([[0, 1, 1]]))
    with pytest.raises(ValueError):
        build_uniform_parallel(0, 2)
    with pytest.raises(ValueError, match="at least one triangle"):
        TriMesh(verts, np.zeros((0, 3), int))
    for bad in (np.nan, np.inf):
        moved = verts.copy()
        moved[1, 0] = bad
        with pytest.raises(ValueError, match="vertices must be finite"):
            TriMesh(moved, np.array([[0, 1, 2]]))
    # vertex 3 lies below edge (0, 1) and vertex 4 above it: two
    # triangles on the edge's two sides are a mesh; a third triangle on
    # the edge, a repeat, or two on one side overlap
    five = np.concatenate([verts, [[1.0, -1.0], [0.5, 0.5]]])
    assert TriMesh(five[:4], np.array([[0, 1, 2], [0, 3, 1]])).nf == 5
    for tris in ([[0, 1, 2], [0, 1, 3], [0, 1, 3]],
                 [[0, 1, 2], [0, 1, 2]],
                 [[0, 1, 2], [2, 1, 0]],
                 [[0, 1, 2], [0, 1, 4]]):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is shared by"):
            TriMesh(five, np.array(tris))
    # a vertex no triangle uses would get no vertex average
    with pytest.raises(ValueError, match="vertex 3 belongs to no triangle"):
        TriMesh(np.concatenate([verts, [[5.0, 5.0]]]), np.array([[0, 1, 2]]))


def test_triangle_facet_names_are_the_edge_arrays():
    mesh = build_uniform_parallel(3, 2)
    ends = mesh.vertices[mesh.edges]  # (nf, 2, 2)
    assert mesh.nf == len(mesh.edges)
    assert np.array_equal(mesh.facet_midpoint, 0.5 * (ends[:, 0] + ends[:, 1]))
    assert np.allclose(mesh.facet_measure,
                       np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1),
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("factory, k, measure", [
    (lambda: TensorMesh(perturb(refine_midpoint((GRID_X, GRID_Y)), 0.2,
                                seed=3)), 4, 1.0),
    (lambda: TensorMesh(perturb((GRID_X, GRID_Y, (0.0, 0.5, 2.0)), 0.2,
                                seed=5)), 6, 2.0),
    (lambda: build_uniform_parallel(3, 2), 3, 1.0),
    (lambda: jittered_parallel(4, 3), 3, 1.0),
], ids=["box2d", "box3d", "tri", "jittered_tri"])
def test_both_mesh_types_share_one_vocabulary(factory, k, measure):
    mesh = factory()
    ne, nf, dim = mesh.ne, mesh.nf, mesh.dim
    assert mesh.elem_facets.shape == (ne, k)
    assert mesh.facet_elems.shape == (nf, 2)
    assert mesh.elem_center.shape == (ne, dim)
    assert mesh.facet_midpoint.shape == (nf, dim)
    assert mesh.elem_measure.shape == (ne,)
    assert mesh.facet_measure.shape == (nf,)
    assert mesh.facet_normal.shape == (nf, dim)
    # -1 marks the missing side of exactly the boundary facets
    missing = (mesh.facet_elems < 0).sum(axis=1)
    assert missing.max() == 1
    assert np.array_equal(np.flatnonzero(missing), mesh.boundary_facets)
    assert np.array_equal(np.flatnonzero(mesh.facet_boundary),
                          mesh.boundary_facets)
    both = np.concatenate([mesh.interior_facets, mesh.boundary_facets])
    assert np.array_equal(np.sort(both), np.arange(nf))
    assert mesh.elem_measure.sum() == pytest.approx(measure, rel=1e-12)


def test_facet_normals_are_unit_and_orthogonal():
    # on triangles orthogonal to the edge vectors, on boxes the axis vectors
    tri = jittered_parallel(2, 3, seed=10)
    evec = tri.vertices[tri.edges[:, 1]] - tri.vertices[tri.edges[:, 0]]
    assert np.abs(np.einsum("ed,ed->e", tri.facet_normal, evec)).max() < 1e-12
    box = TensorMesh(perturb((GRID_X, GRID_Y, (0.0, 0.5, 2.0)), 0.2, seed=5))
    assert np.array_equal(box.facet_normal, np.eye(3)[box.facet_axis])
    for mesh in (tri, box):
        n = mesh.facet_normal
        assert mesh.facet_normal is n and not n.flags.writeable
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, rtol=0.0,
                           atol=1e-13)
        # the two neighbors of an interior facet lie on opposite sides
        inter = mesh.interior_facets
        offset = (mesh.elem_center[mesh.facet_elems[inter]]
                  - mesh.facet_midpoint[inter, None, :])
        side = np.einsum("fkd,fd->fk", offset, n[inter])
        assert (side[:, 0] * side[:, 1] < 0).all()
