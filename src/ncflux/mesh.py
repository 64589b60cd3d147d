"""Axis-aligned tensor-product meshes and triangulations.

A TensorMesh is the product of one sorted gridline array per axis. Its
facets (edges in 2d, faces in 3d) are numbered by normal axis first, then
by gridline position along that axis, then by the cell of the other axes
in C order. ``facet_elems[f]`` is (lower, upper) along the normal, -1
where a side is missing, and ``elem_facets[e]`` lists (axis 0 low, axis 0
high, axis 1 low, ...). Every caller reads topology through these two
tables, which both mesh types share; none computes facet ids. The
numbering is still fixed: ``assembly.nested_dissection`` keeps facet-id
order inside its leaves, so the 2d preconditioner, and through it the
reports' bytes, depend on it.

Meshes are immutable: all derived arrays are computed once and write-
protected. Refinement and perturbation return new meshes.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

# Worst element aspect ratio, or measure ratio across an interior facet,
# above which a TensorMesh warns that recovery accuracy may suffer.
NONDEGENERACY_LIMIT = 20.0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _by_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce(a, axis=-1) for a short last axis (a mesh dimension):
    ufunc applied to the columns in order, the reduction's own order, so
    the same bits. numpy reduces a short axis at about 25 ns a row; the
    column form runs its inner loops over the long axes instead."""
    out = np.array(a[..., 0])
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def _cached(mesh, key: str, build) -> np.ndarray:
    """mesh._cache[key], built by build() and frozen on first use."""
    if key not in mesh._cache:
        mesh._cache[key] = _frozen(build())
    return mesh._cache[key]


class TensorMesh:
    """Tensor-product mesh on a box, any dimension >= 1.

    Attributes
    ----------
    dim : int
    gridlines : tuple of ndarray
        Strictly increasing coordinates per axis.
    shape : tuple of int
        Number of intervals per axis.
    ne, nf : int
        Element and facet counts.
    elem_index : ndarray (ne, dim) int
        Cell index along each axis; cells are numbered in C order.
    elem_lo, elem_ext, elem_center : ndarray (ne, dim)
    elem_measure : ndarray (ne,)
    elem_facets : ndarray (ne, 2*dim) int
        Global facet ids, ordered (axis0 low, axis0 high, axis1 low, ...).
    facet_axis : ndarray (nf,) int
        Normal axis of each facet.
    facet_elems : ndarray (nf, 2) int
        Adjacent element ids (lower side, upper side); -1 where absent.
    facet_midpoint : ndarray (nf, dim)
    facet_measure : ndarray (nf,)
    facet_boundary : ndarray (nf,) bool
    facet_normal : ndarray (nf, dim)
        Unit vector of each facet's axis, built on first use.
    elem_second_moment : ndarray (ne, dim)
        (1/|K|) int_K (x_j - c_j)^2 per cell: l_j^2 / 12.
    interior_facets, boundary_facets : ndarray of int
    """

    def __init__(self, gridlines):
        # copies: the mesh freezes its arrays and must not touch the caller's
        gls = tuple(np.array(g, dtype=float) for g in gridlines)
        if len(gls) < 1:
            raise ValueError("need at least one axis")
        for k, g in enumerate(gls):
            if g.ndim != 1 or g.size < 2:
                raise ValueError(f"axis {k}: need >= 2 gridlines")
            if not np.all(np.isfinite(g)):
                raise ValueError(f"axis {k}: gridlines must be finite")
            if not np.all(np.diff(g) > 0):
                raise ValueError(f"axis {k}: gridlines must strictly increase")
        self.gridlines = tuple(_frozen(g) for g in gls)
        self.dim = len(gls)
        self.shape = tuple(g.size - 1 for g in gls)
        self.ne = int(np.prod(self.shape))
        self._build_elements()
        self._build_facets()
        self._check_nondegeneracy()
        self._cache: dict = {}

    # -- construction ------------------------------------------------------

    def _build_elements(self):
        d, shape = self.dim, self.shape
        idx = np.indices(shape).reshape(d, -1).T          # (ne, d) C-order
        lo = np.empty((self.ne, d))
        ext = np.empty((self.ne, d))
        for k in range(d):
            g = self.gridlines[k]
            lo[:, k] = g[idx[:, k]]
            ext[:, k] = g[idx[:, k] + 1] - g[idx[:, k]]
        self.elem_index = _frozen(idx)
        self.elem_lo = _frozen(lo)
        self.elem_ext = _frozen(ext)
        self.elem_center = _frozen(lo + 0.5 * ext)
        self.elem_measure = _frozen(_by_columns(np.multiply, ext))

    def _build_facets(self):
        # one block of facet ids per normal axis k, shaped (n_k + 1,) + the
        # other axes' cell counts: the gridline position, then the other
        # axes' cells in C order
        d, shape, idx = self.dim, self.shape, self.elem_index
        centers = [0.5 * (g[:-1] + g[1:]) for g in self.gridlines]
        lens = [np.diff(g) for g in self.gridlines]
        ef = np.empty((self.ne, 2 * d), dtype=np.int64)
        axes, mids, measures = [], [], []
        start = 0
        for k in range(d):
            other = [j for j in range(d) if j != k]
            block = (shape[k] + 1,) + tuple(shape[j] for j in other)
            size = math.prod(block)
            # a cell's low facet sits at its own position, its high one a
            # cross section further
            ef[:, 2 * k] = start + np.ravel_multi_index(
                idx[:, [k] + other].T, block)
            ef[:, 2 * k + 1] = ef[:, 2 * k] + size // block[0]
            pos = np.indices(block).reshape(d, -1)
            mid = np.empty((size, d))
            mid[:, k] = self.gridlines[k][pos[0]]
            measure = np.ones(size)
            for c, j in enumerate(other):
                mid[:, j] = centers[j][pos[c + 1]]
                measure = measure * lens[j][pos[c + 1]]
            axes.append(np.full(size, k, dtype=np.int64))
            mids.append(mid)
            measures.append(measure)
            start += size
        self.nf = start
        # cell e is the lower neighbor of its high facets, the upper
        # neighbor of its low ones
        elems = np.full((self.nf, 2), -1, dtype=np.int64)
        cells = np.arange(self.ne)[:, None]
        elems[ef[:, 1::2], 0] = cells
        elems[ef[:, 0::2], 1] = cells

        self.elem_facets = _frozen(ef)
        self.facet_elems = _frozen(elems)
        self.facet_axis = _frozen(np.concatenate(axes))
        self.facet_midpoint = _frozen(np.concatenate(mids))
        self.facet_measure = _frozen(np.concatenate(measures))
        bnd = (elems[:, 0] < 0) | (elems[:, 1] < 0)
        self.facet_boundary = _frozen(bnd)
        self.interior_facets = _frozen(np.flatnonzero(~bnd))
        self.boundary_facets = _frozen(np.flatnonzero(bnd))

    def _check_nondegeneracy(self):
        ext = self.elem_ext
        aspect = (_by_columns(np.maximum, ext)
                  / _by_columns(np.minimum, ext))
        worst = aspect.max()
        inter = self.interior_facets
        if inter.size:
            m = self.elem_measure[self.facet_elems[inter]]
            ratio = (np.maximum(m[:, 0], m[:, 1])
                     / np.minimum(m[:, 0], m[:, 1])).max()
            worst = max(worst, ratio)
        self.nondegeneracy = float(worst)
        if worst > NONDEGENERACY_LIMIT:
            warnings.warn(
                f"mesh nondegeneracy measure {worst:.3g} exceeds "
                f"{NONDEGENERACY_LIMIT:g}; recovery accuracy may suffer",
                stacklevel=3)

    # -- queries -----------------------------------------------------------

    @property
    def h(self) -> float:
        """Largest interval length over all axes."""
        return float(max(np.diff(g).max() for g in self.gridlines))

    @property
    def facet_normal(self) -> np.ndarray:
        return _cached(self, "facet_normal",
                       lambda: np.eye(self.dim)[self.facet_axis])

    @property
    def elem_second_moment(self) -> np.ndarray:
        return self.elem_ext ** 2 / 12.0


def build_tensor_mesh(*gridlines) -> TensorMesh:
    """Construct a TensorMesh from per-axis gridline sequences."""
    return TensorMesh(gridlines)


def refine_midpoint(mesh: TensorMesh) -> TensorMesh:
    """Halve every interval by inserting gridline midpoints."""
    fine = []
    for g in mesh.gridlines:
        out = np.empty(2 * g.size - 1)
        out[::2] = g
        out[1::2] = 0.5 * (g[:-1] + g[1:])
        fine.append(out)
    return TensorMesh(fine)


def coarsen(mesh: TensorMesh) -> TensorMesh:
    """Keep every other gridline of each axis, and always the last one.

    Coarse cell j of an axis holds fine cells 2j and 2j + 1 (only 2j for
    the last coarse cell of an axis with an odd cell count), so the
    coarse mesh is nested in the fine one whatever its cell counts.
    """
    coarse = []
    for g in mesh.gridlines:
        keep = g[::2]
        if g.size % 2 == 0:         # odd cell count: the last line too
            keep = np.append(keep, g[-1])
        coarse.append(keep)
    return TensorMesh(coarse)


def perturb(mesh: TensorMesh, fraction: float, seed: int) -> TensorMesh:
    """Randomly shift interior gridlines; boundary gridlines stay put.

    Each interior gridline of axis k moves by an independent uniform draw
    from [-fraction*s_k, fraction*s_k], where s_k is the smallest interval
    of axis k before perturbation. Draws consume one seeded PCG64 stream
    in axis order, then gridline order, so results are reproducible given
    (mesh, fraction, seed). fraction must lie in [0, 0.5) to keep the
    gridlines strictly increasing.
    """
    if not 0.0 <= fraction < 0.5:
        raise ValueError(f"fraction must be in [0, 0.5), got {fraction}")
    rng = np.random.default_rng(seed)
    moved = []
    for g in mesh.gridlines:
        g = g.copy()
        if g.size > 2:
            s = np.diff(g).min()
            g[1:-1] += rng.uniform(-fraction * s, fraction * s, g.size - 2)
        moved.append(g)
    return TensorMesh(moved)


class TriMesh:
    """Triangulation of a planar domain.

    Elements are the triangles and facets the edges, under TensorMesh's
    attribute names, so dof numbering, assembly, the fill-reducing order
    and the error norms serve both mesh types.

    Attributes
    ----------
    vertices : ndarray (nv, 2)
    triangles : ndarray (ne, 3) int
        Vertex ids, counterclockwise.
    edges : ndarray (nf, 2) int
        Vertex id pairs (low, high), lexicographically ordered.
    dim, nv, ne, nf : int
        2, and the vertex, triangle and edge counts.
    elem_center, elem_measure : ndarray (ne, 2), (ne,)
        Centroids and areas.
    elem_facets : ndarray (ne, 3) int
        Global edge ids; local edge j is opposite local vertex j.
    facet_elems : ndarray (nf, 2) int
        Adjacent triangle ids in increasing order; -1 where absent.
    facet_midpoint, facet_measure : ndarray (nf, 2), (nf,)
        Edge midpoints and lengths.
    facet_normal : ndarray (nf, 2)
        Unit edge normals, the (low, high) direction turned clockwise;
        built on first use.
    elem_second_moment : ndarray (ne, 2)
        (1/|T|) int_T (x_j - c_j)^2 per triangle: sum_i (p_ij - c_j)^2 / 12.
    facet_boundary : ndarray (nf,) bool
    interior_facets, boundary_facets : ndarray of int

    The edge-averaging recovery theory needs each adjacent triangle pair
    to form a parallelogram, as on ``build_uniform_parallel`` meshes; the
    mesh itself does not check this.
    """

    dim = 2

    def __init__(self, vertices, triangles):
        # copies: triangles are reoriented in place and both get frozen
        v = np.array(vertices, dtype=float)
        t = np.array(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must have shape (ne, 3)")
        if t.shape[0] == 0:
            raise ValueError("a mesh needs at least one triangle")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise ValueError("triangle vertex id out of range")
        e1 = v[t[:, 1]] - v[t[:, 0]]
        e2 = v[t[:, 2]] - v[t[:, 0]]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det == 0):
            raise ValueError("degenerate triangle")
        flip = det < 0
        t[flip, 1], t[flip, 2] = t[flip, 2].copy(), t[flip, 1].copy()
        det = np.abs(det)

        self.vertices = _frozen(v)
        self.triangles = _frozen(t)
        self.nv = v.shape[0]
        self.ne = t.shape[0]
        self.elem_measure = _frozen(0.5 * det)
        # the mean over the three vertices, a column at a time
        self.elem_center = _frozen(
            _by_columns(np.add, v[t].transpose(0, 2, 1)) / 3)

        edges, elem_facets, fe = _edge_tables(t, self.nv)
        unused = np.flatnonzero(np.bincount(t.ravel(), minlength=self.nv) == 0)
        if unused.size:
            raise ValueError(f"vertex {unused[0]} belongs to no triangle")
        self.edges = _frozen(edges)
        self.nf = edges.shape[0]
        self.elem_facets = _frozen(elem_facets)
        self.facet_elems = _frozen(fe)

        self.facet_midpoint = _frozen(0.5 * (v[edges[:, 0]] + v[edges[:, 1]]))
        evec = v[edges[:, 1]] - v[edges[:, 0]]
        self.facet_measure = _frozen(np.hypot(evec[:, 0], evec[:, 1]))
        bnd = fe[:, 1] < 0
        self.facet_boundary = _frozen(bnd)
        self.interior_facets = _frozen(np.flatnonzero(~bnd))
        self.boundary_facets = _frozen(np.flatnonzero(bnd))
        self._cache: dict = {}

    @property
    def h(self) -> float:
        """Largest edge length."""
        return float(self.facet_measure.max())

    @property
    def facet_normal(self) -> np.ndarray:
        def build():
            evec = np.diff(self.vertices[self.edges], axis=1)[:, 0]
            return evec[:, ::-1] * [1.0, -1.0] / self.facet_measure[:, None]
        return _cached(self, "facet_normal", build)

    @property
    def elem_second_moment(self) -> np.ndarray:
        rel = (self.vertices[self.triangles].transpose(0, 2, 1)
               - self.elem_center[:, :, None])
        return _by_columns(np.add, rel ** 2) / 12.0


def _edge_tables(t, nv):
    """Edges as (low, high) vertex pairs in lexicographic order, the
    (ne, 3) edge ids of each triangle, local edge j opposite vertex j,
    and the (nf, 2) adjacent triangles of each edge in increasing order,
    -1 where absent.

    t is counterclockwise, so an edge between two triangles runs in
    opposite directions in them; an edge used more than twice, or twice
    in the same direction, means overlapping triangles and is rejected.
    """
    a, b = t[:, [1, 2, 0]].ravel(), t[:, [2, 0, 1]].ravel()
    # one key per (low, high) pair, ordered like the pairs themselves
    keys, inverse, uses = np.unique(
        np.minimum(a, b) * nv + np.maximum(a, b),
        return_inverse=True, return_counts=True)
    edges = np.stack(np.divmod(keys, nv), axis=1)
    rising = np.bincount(inverse, weights=a < b, minlength=keys.size)
    bad = np.flatnonzero((uses > 2) | ((uses == 2) & (rising != 1)))
    if bad.size:
        raise ValueError(
            f"edge {tuple(edges[bad[0]].tolist())} is shared by "
            f"{uses[bad[0]]} overlapping triangles; an edge must belong to "
            "one triangle, or to two on opposite sides of it")
    # uses by edge, each edge's in increasing triangle order
    tri = np.argsort(inverse, kind="stable") // 3
    first = np.cumsum(uses) - uses
    fe = np.full((keys.size, 2), -1, dtype=np.int64)
    fe[:, 0] = tri[first]
    fe[uses == 2, 1] = tri[first[uses == 2] + 1]
    return edges, inverse.reshape(-1, 3), fe


def build_uniform_parallel(nx: int, ny: int) -> TriMesh:
    """Triangulate the unit square into nx*ny cells split by the same
    diagonal.

    Every pair of adjacent triangles forms a parallelogram, which the
    edge-averaging recovery needs; 2*nx*ny triangles total.
    """
    if nx < 1 or ny < 1:
        raise ValueError("need nx, ny >= 1")
    x = np.linspace(0.0, 1.0, nx + 1)
    y = np.linspace(0.0, 1.0, ny + 1)
    xx, yy = np.meshgrid(x, y, indexing="ij")
    verts = np.stack([xx.ravel(), yy.ravel()], axis=1)

    # cell (i, j), row-major, splits into (v00, v10, v11), (v00, v11, v01)
    v00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    v10, v01 = v00 + ny + 1, v00 + 1
    v11 = v10 + 1
    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    tris[0::2] = np.stack([v00, v10, v11], axis=1)
    tris[1::2] = np.stack([v00, v11, v01], axis=1)
    return TriMesh(verts, tris)
