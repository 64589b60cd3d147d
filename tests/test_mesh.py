import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from ncflux.mesh import (TensorMesh, TriMesh, build_tensor_mesh,
                         build_uniform_parallel, coarsen, perturb,
                         refine_midpoint)

from helpers import jittered_parallel, perturbed_2d_meshes

GRID_X = (0.0, 0.4, 0.8, 1.0)
GRID_Y = (0.0, 0.7, 1.0)


def test_six_element_mesh_counts():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    assert mesh.ne == 6
    assert mesh.nf == 17


def test_single_element_mesh_all_boundary():
    mesh = build_tensor_mesh((0.0, 1.0), (0.0, 1.0))
    assert mesh.ne == 1
    assert mesh.nf == 4
    assert mesh.facet_boundary.all()


def test_three_dim_mesh_counts():
    mesh = build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.6, 1.0), (0.0, 0.4, 1.0))
    assert mesh.dim == 3
    assert mesh.ne == 8


def test_interior_facets_have_two_elements_boundary_one():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    inter = mesh.facet_elems[mesh.interior_facets]
    assert (inter >= 0).all()
    bnd = mesh.facet_elems[mesh.boundary_facets]
    assert ((bnd >= 0).sum(axis=1) == 1).all()


def test_element_facet_table_is_consistent():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    for e in range(mesh.ne):
        for f in mesh.elem_facets[e]:
            assert e in mesh.facet_elems[f]
    # low/high facet ordering matches coordinates along each axis
    for k in range(mesh.dim):
        lo = mesh.facet_midpoint[mesh.elem_facets[:, 2 * k], k]
        hi = mesh.facet_midpoint[mesh.elem_facets[:, 2 * k + 1], k]
        assert np.allclose(lo, mesh.elem_lo[:, k])
        assert np.allclose(hi, mesh.elem_lo[:, k] + mesh.elem_ext[:, k])


@settings(max_examples=25)
@given(perturbed_2d_meshes())
def test_facet_numbering_contract(mesh):
    # midpoint_average follows boundary chains by id +- cross_size(axis):
    # the facet one gridline further along axis k shares the element
    # between the two, and elem_facets names exactly those facets
    ids = np.arange(mesh.nf)
    for k in range(mesh.dim):
        step = mesh.cross_size(k)
        block = ids[mesh.facet_block(k)]
        assert (mesh.facet_axis[block] == k).all()
        inner = block[mesh.facet_pos[block] < mesh.shape[k]]
        nxt = inner + step
        assert (mesh.facet_axis[nxt] == k).all()
        assert np.array_equal(mesh.facet_pos[nxt], mesh.facet_pos[inner] + 1)
        assert np.array_equal(mesh.facet_elems[inner, 1],
                              mesh.facet_elems[nxt, 0])
        assert (mesh.facet_elems[inner, 1] >= 0).all()
        lo, hi = mesh.elem_facets[:, 2 * k], mesh.elem_facets[:, 2 * k + 1]
        assert np.array_equal(hi, lo + step)
        assert np.array_equal(mesh.facet_elems[lo, 1], np.arange(mesh.ne))
        assert np.array_equal(mesh.facet_elems[hi, 0], np.arange(mesh.ne))
    # every element is named once per side of each axis, and nowhere else
    named = np.sort(mesh.facet_elems[mesh.facet_elems >= 0])
    assert np.array_equal(named, np.repeat(np.arange(mesh.ne), 2 * mesh.dim))


def facet_patch(mesh, facet_id):
    """The elements next to a facet (two interior, one boundary), read
    from facet_elems."""
    return {int(e) for e in mesh.facet_elems[facet_id] if e >= 0}


def test_patch_of_facets():
    mesh = build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 1.0))
    fid = int(mesh.interior_facets[0])
    assert facet_patch(mesh, fid) == {0, 1}
    bid = int(mesh.boundary_facets[0])
    assert len(facet_patch(mesh, bid)) == 1


def test_patch_union_covers_axis_neighbors():
    mesh = build_tensor_mesh((0, 1, 2, 3), (0, 1, 2, 3))
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
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    assert refine_midpoint(mesh).ne == 24
    cube = build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.6, 1.0),
                             (0.0, 0.4, 1.0))
    assert refine_midpoint(cube).ne == 64


def test_refine_single_element_inserts_midpoint():
    fine = refine_midpoint(build_tensor_mesh((0.0, 1.0), (0.0, 1.0)))
    assert fine.ne == 4
    assert np.allclose(fine.gridlines[0], (0.0, 0.5, 1.0))


def test_refine_halves_intervals_exactly():
    mesh = build_tensor_mesh((0.0, 0.25, 1.0), (0.0, 1.0))
    fine = refine_midpoint(mesh)
    assert np.array_equal(fine.gridlines[0],
                          np.array([0.0, 0.125, 0.25, 0.625, 1.0]))


@pytest.mark.parametrize("cells", [(4, 4), (5, 2), (3, 7, 2), (1, 6, 4)])
def test_coarsen_nests_the_coarse_cells(cells):
    mesh = perturb(build_tensor_mesh(*(np.linspace(0.0, 1.0, n + 1)
                                       for n in cells)), 0.2, seed=sum(cells))
    coarse = coarsen(mesh)
    for g, c in zip(mesh.gridlines, coarse.gridlines):
        n = g.size - 1
        # every other gridline, and always the last one
        assert np.array_equal(c, np.unique(np.append(g[::2], g[-1])))
        assert c.size - 1 == (n + 1) // 2
        # coarse cell j holds fine cells 2j and 2j + 1
        i = np.arange(n)
        assert np.all(c[i // 2] <= g[i]) and np.all(g[i + 1] <= c[i // 2 + 1])


def test_perturb_zero_is_identity():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    out = perturb(mesh, 0.0, seed=5)
    for g0, g1 in zip(mesh.gridlines, out.gridlines):
        assert np.array_equal(g0, g1)


def test_perturb_keeps_mesh_valid():
    mesh = refine_midpoint(refine_midpoint(
        build_tensor_mesh((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))))
    out = perturb(mesh, 0.2, seed=3)
    for g in out.gridlines:
        assert np.all(np.diff(g) > 0)
        assert g[0] == 0.0 and g[-1] == 1.0
    assert out.nondegeneracy <= 20.0


def test_perturb_is_deterministic_and_pure():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    before = [g.copy() for g in mesh.gridlines]
    a = perturb(mesh, 0.2, seed=42)
    b = perturb(mesh, 0.2, seed=42)
    for ga, gb in zip(a.gridlines, b.gridlines):
        assert np.array_equal(ga, gb)
    for g0, g1 in zip(before, mesh.gridlines):
        assert np.array_equal(g0, g1)
    c = perturb(mesh, 0.2, seed=43)
    assert any(not np.array_equal(ga, gc)
               for ga, gc in zip(a.gridlines, c.gridlines))


def test_perturb_rejects_half_or_more():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    with pytest.raises(ValueError):
        perturb(mesh, 0.5, seed=0)


def test_measures_sum_to_domain_measure():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    assert abs(mesh.elem_measure.sum() - 1.0) < 1e-12
    out = perturb(refine_midpoint(mesh), 0.2, seed=9)
    assert abs(out.elem_measure.sum() - 1.0) < 1e-12


def test_h_is_largest_interval():
    mesh = build_tensor_mesh(GRID_X, GRID_Y)
    assert mesh.h == pytest.approx(0.7)


def test_nondegeneracy_warning():
    with pytest.warns(UserWarning, match="nondegeneracy"):
        build_tensor_mesh((0.0, 0.001, 1.0), (0.0, 0.5, 1.0))


def test_gridlines_must_increase():
    with pytest.raises(ValueError, match="axis 0: .* strictly increase"):
        build_tensor_mesh((0.0, 0.5, 0.5, 1.0), (0.0, 1.0))
    # an infinite line would give an infinite element measure
    for lines in ((0.0, np.inf), (0.0, np.nan, 1.0), (-np.inf, 0.0, 1.0)):
        with pytest.raises(ValueError, match="axis 1: .* must be finite"):
            build_tensor_mesh((0.0, 1.0), lines)


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
    build_tensor_mesh(grid, GRID_Y)
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
    (lambda: perturb(refine_midpoint(build_tensor_mesh(GRID_X, GRID_Y)),
                     0.2, seed=3), 4, 1.0),
    (lambda: perturb(build_tensor_mesh(GRID_X, GRID_Y, (0.0, 0.5, 2.0)),
                     0.2, seed=5), 6, 2.0),
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
    box = perturb(build_tensor_mesh(GRID_X, GRID_Y, (0.0, 0.5, 2.0)), 0.2,
                  seed=5)
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
