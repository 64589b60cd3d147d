import dataclasses
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ncflux.problems import (REGISTRY, SAMPLED, Problem, Term, _sin_cos,
                             custom_problem, problem1, problem2)

# Right-hand side values for the stock problems, computed symbolically
# from f = -div(a grad u) + b . grad u + c u with 20 significant digits.
P1_SOURCE_ORACLE = {
    (0.21, 0.33): -0.33045103509795494687,
    (0.57, 0.81): 12.371960443628248772,
    (0.93, 0.12): 11.574816770044743395,
    (0.44, 0.66): 5.1680207366910774293,
    (0.05, 0.95): 0.052408359043498907605,
}
P2_SOURCE_ORACLE = {
    (0.21, 0.33, 0.54): 633.67934109732114924,
    (0.77, 0.18, 0.36): 678.83126489463690939,
    (0.42, 0.91, 0.88): 719.90726140225630421,
}


def fd_gradient(func, pts, h=1e-5):
    dim = pts.shape[-1]
    cols = []
    for k in range(dim):
        dx = np.zeros(dim)
        dx[k] = h
        cols.append((func(pts + dx) - func(pts - dx)) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_laplacian(func, pts, h=1e-4):
    dim = pts.shape[-1]
    out = np.zeros(pts.shape[:-1])
    for k in range(dim):
        dx = np.zeros(dim)
        dx[k] = h
        out += (func(pts + dx) - 2 * func(pts) + func(pts - dx)) / h ** 2
    return out


def interior_points(dim, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 0.95, size=(n, dim))


def test_p1_vanishes_on_the_boundary():
    prob = problem1()
    t = np.linspace(0.0, 1.0, 17)
    for edge in (np.stack([t, np.zeros_like(t)], axis=-1),
                 np.stack([t, np.ones_like(t)], axis=-1),
                 np.stack([np.zeros_like(t), t], axis=-1),
                 np.stack([np.ones_like(t), t], axis=-1)):
        assert np.allclose(prob.u(edge), 0.0, atol=1e-15)
        assert np.allclose(prob.sample(edge, ("g",))["g"], 0.0, atol=1e-15)


def test_half_angle_sin_cos_matches_libm():
    # every multiple of pi in the range, where tan(theta / 2) is 0 or
    # near its poles, on top of a fine grid
    theta = np.concatenate([np.linspace(-4 * np.pi, 4 * np.pi, 200_001),
                            np.arange(-4, 5) * np.pi])
    s, c = _sin_cos(theta)
    assert np.abs(s - np.sin(theta)).max() <= 1e-15
    assert np.abs(c - np.cos(theta)).max() <= 1e-15


def test_p2_vanishes_on_all_cube_faces():
    prob = problem2()
    rng = np.random.default_rng(0)
    pts = rng.uniform(size=(50, 3))
    for axis in range(3):
        for val in (0.0, 1.0):
            face = pts.copy()
            face[:, axis] = val
            assert np.allclose(prob.u(face), 0.0, atol=1e-12)


@pytest.mark.parametrize("factory", [problem1, problem2])
def test_gradient_consistent_with_finite_differences(factory):
    prob = factory()
    pts = interior_points(prob.dim, 100, seed=1)
    fd = fd_gradient(prob.u, pts)
    exact = prob.grad_u(pts)
    scale = np.abs(exact).max()
    assert np.abs(fd - exact).max() < 1e-5 * max(scale, 1.0)


@pytest.mark.parametrize("factory", [problem1, problem2])
def test_laplacian_consistent_with_finite_differences(factory):
    prob = factory()
    pts = interior_points(prob.dim, 100, seed=2)
    fd = fd_laplacian(prob.u, pts)
    exact = prob.lap_u(pts)
    scale = np.abs(exact).max()
    assert np.abs(fd - exact).max() < 1e-5 * max(scale, 1.0)


@pytest.mark.parametrize("factory", [problem1, problem2])
def test_diffusion_gradient_consistent(factory):
    prob = factory()
    pts = interior_points(prob.dim, 50, seed=3)
    fd = fd_gradient(prob.a, pts)
    assert np.abs(fd - prob.grad_a(pts)).max() < 1e-5 * np.abs(fd).max()


def test_p1_source_matches_symbolic_oracle():
    prob = problem1()
    pts = np.array(sorted(P1_SOURCE_ORACLE))
    expected = np.array([P1_SOURCE_ORACLE[tuple(p)] for p in pts])
    assert np.allclose(Term(prob, "f")(pts), expected, rtol=1e-12,
                       atol=1e-14)


def test_p2_source_matches_symbolic_oracle():
    prob = problem2()
    pts = np.array(sorted(P2_SOURCE_ORACLE))
    expected = np.array([P2_SOURCE_ORACLE[tuple(p)] for p in pts])
    assert np.allclose(Term(prob, "f")(pts), expected, rtol=1e-12)


def test_p1_point_value_anchor():
    prob = problem1()
    pt = np.array([0.57, 0.81])
    assert prob.u(pt) == pytest.approx(0.26512835107177480774, rel=1e-14)


def test_p2_has_no_advection_or_reaction():
    prob = problem2()
    assert prob.b is None
    assert prob.c is None


def test_custom_linear_solution_with_advection_and_reaction():
    # u = x1, a = 1, b = (3, 4), c = 5 gives f = 3 + 5 x1
    prob = custom_problem(
        dim=2,
        u=lambda x: x[..., 0],
        grad_u=lambda x: np.stack(
            [np.ones(x.shape[:-1]), np.zeros(x.shape[:-1])], axis=-1),
        lap_u=lambda x: np.zeros(x.shape[:-1]),
        a=lambda x: np.ones(x.shape[:-1]),
        b=lambda x: np.stack(
            [np.full(x.shape[:-1], 3.0), np.full(x.shape[:-1], 4.0)], axis=-1),
        c=lambda x: np.full(x.shape[:-1], 5.0),
    )
    pts = interior_points(2, 20, seed=4)
    assert np.allclose(Term(prob, "f")(pts), 3.0 + 5.0 * pts[..., 0],
                       atol=1e-14)


def test_custom_quadratic_poisson_source():
    prob = custom_problem(
        dim=2,
        u=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2,
        grad_u=lambda x: 2.0 * x,
        lap_u=lambda x: np.full(x.shape[:-1], 4.0),
        a=lambda x: np.ones(x.shape[:-1]),
    )
    pts = interior_points(2, 20, seed=5)
    assert np.allclose(Term(prob, "f")(pts), -4.0, atol=1e-14)


def test_explicit_source_short_circuits_synthesis():
    prob = custom_problem(
        dim=2,
        u=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2,
        grad_u=lambda x: 2.0 * x,
        lap_u=lambda x: np.full(x.shape[:-1], 4.0),
        a=lambda x: np.ones(x.shape[:-1]),
        source=lambda x: np.full(x.shape[:-1], 7.5),
    )
    pts = interior_points(2, 10, seed=6)
    assert np.allclose(Term(prob, "f")(pts), 7.5)


def test_boundary_defaults_to_solution_trace():
    prob = custom_problem(
        dim=2,
        u=lambda x: x[..., 0] + 2.0 * x[..., 1],
        grad_u=lambda x: np.broadcast_to([1.0, 2.0], x.shape).copy(),
        lap_u=lambda x: np.zeros(x.shape[:-1]),
        a=lambda x: np.ones(x.shape[:-1]),
    )
    pts = interior_points(2, 10, seed=7)
    assert np.allclose(prob.sample(pts, ("g",))["g"], prob.u(pts))


def test_explicit_boundary_data_wins():
    prob = custom_problem(
        dim=2,
        u=lambda x: x[..., 0],
        grad_u=lambda x: np.broadcast_to([1.0, 0.0], x.shape).copy(),
        lap_u=lambda x: np.zeros(x.shape[:-1]),
        a=lambda x: np.ones(x.shape[:-1]),
        g=lambda x: np.full(x.shape[:-1], -3.0),
    )
    pts = interior_points(2, 10, seed=8)
    assert np.allclose(prob.sample(pts, ("g",))["g"], -3.0)


def test_dimension_below_two_rejected():
    with pytest.raises(ValueError):
        custom_problem(
            dim=1,
            u=lambda x: x[..., 0],
            grad_u=lambda x: np.ones_like(x),
            lap_u=lambda x: np.zeros(x.shape[:-1]),
            a=lambda x: np.ones(x.shape[:-1]),
        )


def test_registry_names_and_dimensions():
    assert set(REGISTRY) == {"p1", "p2"}
    p1 = REGISTRY["p1"]()
    p2 = REGISTRY["p2"]()
    assert isinstance(p1, Problem) and isinstance(p2, Problem)
    assert (p1.name, p1.dim) == ("p1", 2)
    assert (p2.name, p2.dim) == ("p2", 3)


@pytest.mark.parametrize("factory", [problem1, problem2])
def test_initial_gridlines_span_the_unit_box(factory):
    prob = factory()
    assert len(prob.initial_gridlines) == prob.dim
    for gl in prob.initial_gridlines:
        assert gl[0] == 0.0 and gl[-1] == 1.0
        assert all(b > a for a, b in zip(gl, gl[1:]))


LEAVES = ("u", "grad_u", "lap_u", "a", "grad_a", "b", "c", "f", "g")


def leaf(problem, name):
    """The callable of a leaf; the load f and the boundary data g are
    their Terms."""
    return (Term(problem, name) if name in ("f", "g")
            else getattr(problem, name))


def leaves(problem):
    return [name for name in LEAVES if leaf(problem, name) is not None]


@pytest.mark.parametrize("factory", [problem1, problem2])
def test_leaves_give_the_same_bits_however_the_points_arrive(factory):
    # every call evaluates from the points it is given and keeps nothing:
    # neither the leaves called before nor a caller overwriting its
    # points in place may change a result
    rng = np.random.default_rng(11)
    dim = factory().dim
    x = rng.uniform(size=(6, 5, dim))
    names = leaves(factory())
    fresh = {name: leaf(factory(), name)(x) for name in names}
    for name in names:
        after_others = factory()
        for other in names:
            if other != name:
                leaf(after_others, other)(x)
        overwritten = factory()
        pts = rng.uniform(size=x.shape)
        for other in names:
            leaf(overwritten, other)(pts)
        pts[...] = x
        for problem, points in ((after_others, x), (overwritten, pts)):
            first = leaf(problem, name)(points)
            again = leaf(problem, name)(points)
            assert first.tobytes() == fresh[name].tobytes()
            assert again.tobytes() == fresh[name].tobytes()
            # every call returns a fresh array the caller may change
            assert first.flags.writeable and not np.shares_memory(first,
                                                                  again)


# -- Problem.sample -----------------------------------------------------------

def leaf_problem(counts=None):
    """A custom problem with every leaf (grad_a, b and c included) written
    as a plain function; counts, if given, tallies the calls per leaf."""
    forms = dict(
        u=lambda x: np.sin(x[..., 0]) * np.exp(x[..., 1]),
        grad_u=lambda x: np.stack([np.cos(x[..., 0]) * np.exp(x[..., 1]),
                                   np.sin(x[..., 0]) * np.exp(x[..., 1])],
                                  axis=-1),
        lap_u=lambda x: 0.0 * x[..., 0],
        a=lambda x: 1.0 + x[..., 0] ** 2,
        grad_a=lambda x: np.stack([2.0 * x[..., 0], 0.0 * x[..., 1]],
                                  axis=-1),
        b=lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1),
        c=lambda x: 2.0 + x[..., 1],
    )
    if counts is not None:
        def counted(name, fn):
            def leaf(x):
                counts[name] = counts.get(name, 0) + 1
                return fn(x)
            return leaf
        forms = {name: counted(name, fn) for name, fn in forms.items()}
    return custom_problem(dim=2, **forms)


def from_leaves(problem, name, x):
    """The datum name at x from the problem's leaves, one at a time, with
    f in the order of its formula and g, without its own leaf, as u."""
    if name == "flux":
        return problem.a(x)[..., None] * problem.grad_u(x)
    if name == "g" and problem.g is None:
        return problem.u(x)
    if name != "f":
        return getattr(problem, name)(x)
    out = -problem.a(x) * problem.lap_u(x)
    if problem.grad_a is not None:
        out = out - np.einsum("...d,...d->...", problem.grad_a(x),
                              problem.grad_u(x))
    if problem.b is not None:
        out = out + np.einsum("...d,...d->...", problem.b(x),
                              problem.grad_u(x))
    if problem.c is not None:
        out = out + problem.c(x) * problem.u(x)
    return out


def sampled_names(problem):
    """The names sample returns for the problem."""
    return [n for n in SAMPLED
            if n not in ("b", "c") or getattr(problem, n) is not None]


@pytest.mark.parametrize("factory", [problem1, problem2, leaf_problem])
def test_sample_gives_the_bits_of_the_leaves(factory):
    problem = factory()
    x = np.random.default_rng(21).uniform(size=(5, 7, problem.dim))
    names = sampled_names(problem)
    together = problem.sample(x, names)
    assert list(together) == names
    for name in names:
        expected = from_leaves(problem, name, x).tobytes()
        assert together[name].tobytes() == expected
        assert problem.sample(x, (name,))[name].tobytes() == expected
    assert Term(problem, "f")(x).tobytes() == together["f"].tobytes()


def test_default_sample_calls_each_leaf_at_most_once():
    counts = {}
    problem = leaf_problem(counts)
    x = np.random.default_rng(22).uniform(size=(4, 3, 2))
    for names in [SAMPLED, ("f",), ("f", "flux"), ("a", "grad_u", "u")]:
        counts.clear()
        problem.sample(x, names)
        assert counts and max(counts.values()) == 1
    # with a prescribed load, f calls only the source
    counts.clear()
    driven = dataclasses.replace(problem, source=lambda x: x[..., 0] + 1.0)
    driven.sample(x, ("f",))
    assert counts == {}


@pytest.mark.parametrize("factory", [problem1, problem2, leaf_problem])
def test_sample_returns_fresh_writeable_arrays(factory):
    problem = factory()
    x = np.random.default_rng(23).uniform(size=(6, problem.dim))
    names = sampled_names(problem)
    first, again = problem.sample(x, names), problem.sample(x, names)
    arrays = list(first.values()) + list(again.values())
    for i, arr in enumerate(arrays):
        assert arr.flags.writeable
        assert not np.shares_memory(arr, x)
        for other in arrays[i + 1:]:
            assert not np.shares_memory(arr, other)


@pytest.mark.parametrize("factory", [problem1, problem2])
def test_two_threads_sampling_different_points_get_the_serial_bits(factory):
    problem = factory()
    rng = np.random.default_rng(24)
    point_sets = [rng.uniform(size=(200, 7, problem.dim)) for _ in range(16)]
    names = sampled_names(problem)

    def run(x):
        return {n: v.tobytes() for n, v in problem.sample(x, names).items()}

    serial = [run(x) for x in point_sets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)      # threads switch inside a sample call
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, point_sets, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_replaced_leaves_are_sampled():
    # the built-in terms function serves only the leaves it was built with
    x = np.random.default_rng(25).uniform(size=(4, 5, 2))
    base = problem1()
    changed = dataclasses.replace(base, a=lambda x: 2.0 + x[..., 1])
    got = changed.sample(x, ("a", "f", "flux"))
    for name in ("a", "f", "flux"):
        assert got[name].tobytes() == from_leaves(changed, name, x).tobytes()
    assert not np.array_equal(got["f"], base.sample(x, ("f",))["f"])
    no_reaction = dataclasses.replace(base, c=None)
    assert (no_reaction.sample(x, ("f",))["f"].tobytes()
            == from_leaves(no_reaction, "f", x).tobytes())


def test_sample_names_the_first_datum_that_is_not_finite():
    def grad_u(x):
        g = np.stack([np.ones(x.shape[:-1]), x[..., 1]], axis=-1)
        return np.where(np.abs(x[..., :1] - 0.5) < 0.1, np.nan, g)

    problem = dataclasses.replace(leaf_problem(), grad_u=grad_u)
    x = np.array([[0.2, 0.3], [0.52, 0.7]])
    assert np.isfinite(problem.sample(x[:1], ("grad_u",))["grad_u"]).all()
    with pytest.raises(ValueError, match=r"grad_u is not finite at "
                                         r"x = \[0\.52 0\.7 \]"):
        problem.sample(x, ("a", "grad_u", "u"))
    # a datum formed from a non-finite leaf is named by the leaf
    for derived in ("flux", "f"):
        with pytest.raises(ValueError, match="grad_u is not finite"):
            problem.sample(x, (derived,))
    # finite leaves whose product overflows
    huge = dataclasses.replace(problem,
                               a=lambda x: np.full(x.shape[:-1], 1e308),
                               grad_u=lambda x: np.full(x.shape, 10.0))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="flux is not finite"):
        huge.sample(x, ("flux",))


def test_sample_leaves_out_absent_data_and_rejects_unknown_names():
    x = np.zeros((2, 3))
    assert list(problem2().sample(x, ("a", "b", "c", "f"))) == ["a", "f"]
    with pytest.raises(ValueError, match="unknown problem data .'lap_u'."):
        problem2().sample(x, ("lap_u",))


@pytest.mark.parametrize("constant", [1.5, np.float64(1.5), np.array(1.5), 2])
def test_sample_broadcasts_a_constant_leaf(constant):
    # a constant coefficient is the commonest custom problem
    x = np.random.default_rng(26).uniform(size=(4, 5, 2))
    value = float(constant)
    base = dataclasses.replace(leaf_problem(), grad_a=None)
    flat = dataclasses.replace(base, a=lambda x: constant,
                               b=lambda x: constant, c=lambda x: constant)
    arrays = dataclasses.replace(
        base, a=lambda x: np.full(x.shape[:-1], value),
        b=lambda x: np.full(x.shape, value),
        c=lambda x: np.full(x.shape[:-1], value))
    got, expected = flat.sample(x, SAMPLED), arrays.sample(x, SAMPLED)
    assert list(got) == list(expected)
    for name, values in expected.items():
        assert got[name].tobytes() == values.tobytes()


# a leaf of the wrong shape, and the shape expected at points (4, 5, 2)
WRONG_SHAPES = {
    "grad_u": (lambda x: np.zeros(x.shape[:-1] + (3,)), (4, 5, 2)),
    "b": (lambda x: np.ones(x.shape[:-1]), (4, 5, 2)),
    "a": (lambda x: np.ones(x.shape), (4, 5)),
    "u": (lambda x: np.ones(x.shape[0]), (4, 5)),
    "source": (lambda x: np.ones(x.shape), (4, 5))}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_sample_names_a_leaf_of_the_wrong_shape(name):
    leaf, expected = WRONG_SHAPES[name]
    x = np.random.default_rng(27).uniform(size=(4, 5, 2))
    problem = dataclasses.replace(leaf_problem(), **{name: leaf})
    datum = "f" if name == "source" else name
    with pytest.raises(ValueError, match=re.escape(
            f"problem data {datum} has shape {np.shape(leaf(x))}, "
            f"expected {expected}")):
        problem.sample(x, SAMPLED)


def test_sample_names_the_first_point_where_a_is_not_positive():
    x = np.array([[0.2, 0.3], [0.52, 0.7], [0.9, 0.1]])
    base = dataclasses.replace(leaf_problem(), grad_a=None)
    problem = dataclasses.replace(base, a=lambda x: 0.5 - x[..., 0])
    assert (problem.sample(x[:1], ("a",))["a"] > 0.0).all()
    # every datum that reads a, so every pass, stops at its first
    # point that is not positive
    for names in (("a",), ("f",), ("flux",), SAMPLED):
        with pytest.raises(ValueError, match=r"problem data a is not "
                                             r"positive at x = \[0\.52 0\.7 \]"):
            problem.sample(x, names)
    zero = dataclasses.replace(base, a=lambda x: 0.0)
    with pytest.raises(ValueError, match=r"a is not positive at "
                                         r"x = \[0\.2 0\.3\]: 0\.0"):
        zero.sample(x, ("a",))
