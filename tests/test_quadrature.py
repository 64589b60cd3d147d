import numpy as np
import pytest

from ncflux.quadrature import (gauss1d, map_to_box, map_to_triangle,
                               moment_table, monomial_exponents,
                               reference_monomials, tensor_rule,
                               triangle_rule)


def test_interval_rule_has_four_positive_symmetric_points():
    rule = gauss1d(4)
    assert rule.npoints == 4
    assert np.all(rule.weights > 0)
    srt = np.sort(rule.points)
    assert np.allclose(srt + srt[::-1], 1.0)
    assert abs(rule.weights.sum() - 1.0) < 1e-15


def test_interval_rule_exact_through_degree_seven():
    rule = gauss1d(4)
    for p in range(8):
        exact = 1.0 / (p + 1)
        val = np.sum(rule.weights * rule.points ** p)
        assert abs(val - exact) <= 1e-14 * (1.0 + exact)


def test_interval_rule_breaks_at_degree_eight():
    rule = gauss1d(4)
    val = np.sum(rule.weights * rule.points ** 8)
    assert abs(val - 1.0 / 9.0) > 1e-7


def test_three_point_rule_exact_through_degree_five():
    rule = gauss1d(3)
    assert rule.npoints == 3
    for p in range(6):
        exact = 1.0 / (p + 1)
        val = np.sum(rule.weights * rule.points ** p)
        assert abs(val - exact) <= 1e-15 * (1.0 + exact)
    assert abs(np.sum(rule.weights * rule.points ** 6) - 1.0 / 7.0) > 1e-5


def test_gauss_rule_needs_a_point():
    with pytest.raises(ValueError, match=">= 1 point"):
        gauss1d(0)


@pytest.mark.parametrize("dim,npts", [(2, 16), (3, 64)])
def test_tensor_rule_point_counts(dim, npts):
    rule = tensor_rule(dim, 4)
    assert rule.npoints == npts
    assert rule.points.shape == (npts, dim)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 1.0) < 1e-14


def test_tensor_rule_cubic_product():
    rule = tensor_rule(2, 4)
    val = np.sum(rule.weights * rule.points[:, 0] ** 3 * rule.points[:, 1] ** 3)
    assert abs(val - 1.0 / 16.0) < 1e-14


def test_tensor_rule_exact_per_axis_degree_seven():
    rule = tensor_rule(2, 4)
    for p in range(8):
        for q in range(8):
            exact = 1.0 / ((p + 1) * (q + 1))
            val = np.sum(rule.weights
                         * rule.points[:, 0] ** p * rule.points[:, 1] ** q)
            assert abs(val - exact) <= 1e-13 * (1.0 + exact)


def test_tensor_rule_points_symmetric_about_centroid():
    for dim in (2, 3):
        rule = tensor_rule(dim, 4)
        mean = np.sum(rule.weights[:, None] * rule.points, axis=0)
        assert np.allclose(mean, 0.5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_moment_table_integrates_per_axis_degree_seven_exactly(dim):
    # the means of tau^alpha over [-1, 1]^dim: 0 for an odd power on any
    # axis, else prod 1 / (alpha_k + 1)
    alpha = monomial_exponents(dim, 7 * dim)
    keep = alpha.max(axis=1) <= 7
    assert keep.sum() == 8 ** dim
    means = moment_table(dim, 7 * dim, 4).sum(axis=0)[keep]
    exact = np.prod(np.where(alpha[keep] % 2 == 0, 1.0 / (alpha[keep] + 1),
                             0.0), axis=1)
    assert np.abs(means - exact).max() <= 1e-15


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_three_point_moment_table_integrates_per_axis_degree_five(dim):
    # one degree more, for tau_0^6
    alpha = monomial_exponents(dim, 5 * dim + 1)
    keep = alpha.max(axis=1) <= 5
    assert keep.sum() == 6 ** dim
    table = moment_table(dim, 5 * dim + 1, 3)
    assert table.shape[0] == 3 ** dim
    means = table.sum(axis=0)
    exact = np.prod(np.where(alpha % 2 == 0, 1.0 / (alpha + 1), 0.0),
                    axis=1)
    assert np.abs(means[keep] - exact[keep]).max() <= 1e-15
    # and not beyond: tau_0^6 is off
    sixth = np.flatnonzero((alpha[:, 0] == 6) & (alpha.sum(axis=1) == 6))
    assert abs(means[sixth[0]] - 1.0 / 7.0) > 1e-3


@pytest.mark.parametrize("dim, n", [(2, 4), (3, 3)])
def test_reference_monomials_are_the_tau_powers_at_the_rule_points(dim, n):
    table = reference_monomials(dim, n)
    tau = 2.0 * tensor_rule(dim, n).points - 1.0
    assert table.shape == (2 * dim + 1, n ** dim)
    assert table is reference_monomials(dim, n)
    assert not table.flags.writeable
    assert np.array_equal(table[0], np.ones(n ** dim))
    assert np.array_equal(table[1:dim + 1], tau.T)
    assert np.array_equal(table[dim + 1:], (tau * tau).T)


@pytest.mark.parametrize("dim", [2, 3])
def test_constant_tables_are_c_ordered_and_read_only(dim):
    # a block's values are coefficients times one of these tables; with
    # an F-ordered reference_monomials, a 3d study's error norms kept a
    # second BLAS thread busy
    from ncflux.elements import cr_rule_table

    tables = [reference_monomials(dim, n) for n in (3, 4)]
    tables += [moment_table(dim, 2, n) for n in (3, 4)]
    tables.append(cr_rule_table())
    for table in tables:
        assert table.flags.c_contiguous
        assert not table.flags.writeable


def test_moment_table_is_cached_and_read_only():
    table = moment_table(3, 2, 4)
    assert table is moment_table(3, 2, 4)
    assert table.shape == (64, 10)
    assert not table.flags.writeable
    assert not monomial_exponents(3, 2).flags.writeable
    # the exponents of a lower degree come first
    assert np.array_equal(monomial_exponents(3, 4)[:10],
                          monomial_exponents(3, 2))
    assert monomial_exponents(2, 1).tolist() == [[0, 0], [1, 0], [0, 1]]


def test_tensor_rule_rejects_bad_dimension():
    with pytest.raises(ValueError):
        tensor_rule(0, 4)


def _tri_monomial_exact(p, q):
    # int over the unit triangle of x^p y^q
    from math import factorial
    return factorial(p) * factorial(q) / factorial(p + q + 2)


def test_triangle_rule_area_and_first_moment():
    rule = triangle_rule()
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    val = np.sum(rule.weights * rule.points[:, 0])
    assert abs(val - 1.0 / 6.0) < 1e-15
    assert np.all(rule.weights > 0)


def test_triangle_rule_exact_through_degree_five():
    rule = triangle_rule()
    for p in range(6):
        for q in range(6 - p):
            exact = _tri_monomial_exact(p, q)
            val = np.sum(rule.weights
                         * rule.points[:, 0] ** p * rule.points[:, 1] ** q)
            assert abs(val - exact) <= 1e-13 * (1.0 + exact)


def test_triangle_rule_mixed_quartic():
    rule = triangle_rule()
    val = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
    assert abs(val - 1.0 / 180.0) < 1e-14


def test_triangle_points_average_to_centroid():
    rule = triangle_rule()
    mean = np.sum(rule.weights[:, None] * rule.points, axis=0) / 0.5
    assert np.allclose(mean, 1.0 / 3.0)


def test_map_to_box_weight_sum_is_cell_measure():
    rule = tensor_rule(2, 4)
    pts, wts = map_to_box(rule, np.array([0.1, 0.2]), np.array([0.4, 0.7]))
    assert abs(wts.sum() - 0.28) < 1e-15
    assert pts.shape == (16, 2)


def test_map_to_box_batched_linear_exact():
    rule = tensor_rule(2, 4)
    rng = np.random.default_rng(0)
    lo = rng.uniform(-1.0, 1.0, size=(5, 2))
    ext = rng.uniform(0.1, 2.0, size=(5, 2))
    pts, wts = map_to_box(rule, lo, ext)
    val = np.einsum("cq,cq->c", wts, 2.0 * pts[..., 0] - 3.0 * pts[..., 1])
    center = lo + 0.5 * ext
    exact = np.prod(ext, axis=1) * (2.0 * center[:, 0] - 3.0 * center[:, 1])
    assert np.allclose(val, exact, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("batch", [(), (7,), (4, 5)])
def test_map_to_box_fills_axes_like_the_broadcast_form(dim, batch):
    rule = tensor_rule(dim, 4)
    rng = np.random.default_rng(dim + len(batch))
    lo = rng.uniform(-1.0, 1.0, size=batch + (dim,))
    ext = rng.uniform(0.1, 2.0, size=batch + (dim,))
    pts, wts = map_to_box(rule, lo, ext)
    assert np.array_equal(pts, lo[..., None, :] + ext[..., None, :]
                          * rule.points)
    assert np.array_equal(wts, np.prod(ext, axis=-1)[..., None]
                          * rule.weights)


def test_map_to_triangle_weight_sum_is_area():
    rule = triangle_rule()
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    pts, wts = map_to_triangle(rule, verts)
    assert abs(wts.sum() - 1.0) < 1e-14


def test_map_to_triangle_linear_exact_any_orientation():
    rule = triangle_rule()
    rng = np.random.default_rng(1)
    verts = rng.uniform(-1.0, 1.0, size=(6, 3, 2))
    pts, wts = map_to_triangle(rule, verts)
    val = np.einsum("cq,cq->c", wts, pts[..., 0] + 4.0 * pts[..., 1])
    e1 = verts[:, 1] - verts[:, 0]
    e2 = verts[:, 2] - verts[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    centroid = verts.mean(axis=1)
    exact = area * (centroid[:, 0] + 4.0 * centroid[:, 1])
    assert np.allclose(val, exact, atol=1e-13)
