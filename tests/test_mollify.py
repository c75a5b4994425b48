import functools
import itertools

import numpy as np
import pytest

from lpiforms import mollify
from lpiforms.errors import BadCarrier, BadDegree, BadDimension, OutsideDomain, TooLarge
from lpiforms.mollify import (
    GridForm,
    MollifierConfig,
    ball_diffeo,
    ball_diffeo_jacobian,
    cone_S,
    displacement_bound,
    grid_d,
    homotopy_A,
    interior_region,
    regularize,
    verify_homotopy,
    verify_support_control,
)


def test_kernel_weights_normalized_and_symmetric():
    for n in (1, 2):
        cfg = MollifierConfig(0.2, n=n)
        assert cfg.weights.sum() == pytest.approx(1.0, abs=1e-15)
        # midpoint grid is symmetric under v -> -v
        key = {tuple(np.round(v, 12)): w for v, w in zip(cfg.nodes, cfg.weights)}
        for v, w in key.items():
            assert key[tuple(-x for x in v)] == pytest.approx(w)


def test_grid_form_equality_compares_fields_then_components():
    f = _sample(2, 1 / 16, 1, seed=5)
    copy = GridForm(2, 1 / 16, 1, {a: np.array(c) for a, c in f.components.items()})
    assert f == copy and copy == f
    changed = {a: np.array(c) for a, c in f.components.items()}
    changed[(1,)][8, 8] += 1.0
    assert f != GridForm(2, 1 / 16, 1, changed)
    assert f != GridForm(2, 1 / 16, 1, {(0,): f.component((0,))})  # one component fewer
    assert f != GridForm(2, 1 / 32, 1, {}) and f != f.components


def test_grid_form_sum_rejects_mismatch():
    a = GridForm.from_function(1, 0.25, 0, {(): lambda x: x})
    with pytest.raises(BadCarrier):
        a + GridForm.from_function(1, 0.125, 0, {(): lambda x: x})
    with pytest.raises(BadCarrier):
        a + GridForm.from_function(2, 0.25, 0, {(): lambda x, y: x})
    with pytest.raises(BadDimension):
        a + GridForm.from_function(1, 0.25, 1, {(0,): lambda x: x})


def test_ball_diffeo_identity_and_boundary():
    x = np.array([0.3, -0.4])
    assert np.allclose(ball_diffeo(np.zeros(2), x), x)
    b = np.array([0.6, 0.8])  # |b| = 1: fixed point
    assert np.allclose(ball_diffeo(np.array([0.2, 0.1]), b), b)
    with pytest.raises(OutsideDomain):
        ball_diffeo(np.zeros(2), np.array([1.2, 0.0]))


def test_ball_diffeo_jacobian_matches_finite_differences():
    v = np.array([0.15, -0.1])
    x = np.array([0.2, 0.35])
    J = ball_diffeo_jacobian(v, x)
    eps = 1e-6
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = eps
        fd = (ball_diffeo(v, x + dx) - ball_diffeo(v, x - dx)) / (2 * eps)
        assert np.allclose(J[:, j], fd, atol=1e-8)


def test_displacement_bounded_by_epsilon_scale():
    f = GridForm.from_function(1, 1 / 32, 0, {(): lambda x: x})
    for eps in (0.05, 0.1, 0.2):
        d = displacement_bound(f, MollifierConfig(eps, n=1))
        assert 0 < d <= eps + 1e-12


def test_regularize_constant_and_epsilon_zero():
    one = GridForm.from_function(1, 1 / 64, 0, {(): lambda x: np.ones_like(x)})
    r = regularize(one, MollifierConfig(0.15, n=1))
    inner = interior_region(one, 0.15 + 2 / 64)
    assert (r - one).max_norm(inner) <= 1e-14
    f = GridForm.from_function(1, 1 / 64, 0, {(): lambda x: np.sin(x)})
    assert (regularize(f, MollifierConfig(0.0, n=1)) - f).max_norm() == 0.0


def test_grid_d_matches_analytic():
    f = GridForm.from_function(2, 1 / 64, 0, {(): lambda x, y: x**2 + 3 * x * y})
    df = grid_d(f)
    pts = f.points()
    inner = interior_region(f, 4 / 64)
    err0 = np.abs(df.component((0,)) - (2 * pts[..., 0] + 3 * pts[..., 1]))
    err1 = np.abs(df.component((1,)) - 3 * pts[..., 0])
    assert err0[inner].max() <= 1e-10
    assert err1[inner].max() <= 1e-10


def test_cone_recovers_potential():
    # S(df) = f - f(0) for exact 1-forms
    f = lambda x, y: x**2 + x * y
    om = GridForm.from_function(
        2, 1 / 128, 1,
        {(0,): lambda x, y: 2 * x + y, (1,): lambda x, y: x},
    )
    s = cone_S(om)
    pts = om.points()
    inner = interior_region(om, 4 / 128)
    err = np.abs(s.component(()) - f(pts[..., 0], pts[..., 1]))
    assert err[inner].max() <= 1e-3
    with pytest.raises(BadDegree):
        cone_S(GridForm.from_function(1, 1 / 16, 0, {(): lambda x: x}))


def test_homotopy_residual_small_1d():
    f = GridForm.from_function(1, 1 / 128, 0, {(): lambda x: np.cos(2 * x) * (1 - x**2)})
    rep = verify_homotopy(f, MollifierConfig(0.1, n=1), tol=1e-3)
    assert rep.passed


def test_homotopy_exact_at_epsilon_zero():
    f = GridForm.from_function(1, 1 / 64, 0, {(): lambda x: np.sin(2 * x)})
    rep = verify_homotopy(f, MollifierConfig(0.0, n=1), tol=1e-13)
    assert rep.residual == 0.0


def test_homotopy_top_degree_2d():
    om = GridForm.from_function(
        2, 1 / 64, 2, {(0, 1): lambda x, y: np.exp(-2 * (x**2 + y**2))}
    )
    rep = verify_homotopy(om, MollifierConfig(0.1, n=2), tol=5e-2)
    assert rep.passed


@pytest.mark.parametrize("n, h, degree, eps", [(1, 1 / 2, 0, 0.1), (2, 1 / 64, 1, 0.99)],
                         ids=["collar-1.1", "collar-1.02"])
def test_homotopy_rejects_an_empty_interior_region(n, h, degree, eps):
    # the collar eps + 2h leaves no node in |x| < 1 - collar to check
    fns = {(): lambda *x: x[0]} if degree == 0 else {(0,): lambda x, y: x, (1,): lambda x, y: y}
    om = GridForm.from_function(n, h, degree, fns)
    assert not interior_region(om, eps + 2 * h).any()
    with pytest.raises(ValueError, match="no grid node"):
        verify_homotopy(om, MollifierConfig(eps, n=n), tol=1.0)


def _criterion_5_form():
    def cut(x, y):
        r = np.sqrt(x**2 + y**2)
        return np.where(r > 0.4, (r - 0.4) ** 2, 0.0)

    return GridForm.from_function(2, 1 / 64, 0, {(): cut})


def test_support_control():
    rep = verify_support_control(_criterion_5_form(), MollifierConfig(0.1, n=2), r=0.4)
    assert rep.passed
    assert rep.detail["delta"] < 0.11


def test_support_control_rejects_a_form_that_does_not_vanish_on_the_disc():
    one = GridForm.from_function(2, 1 / 16, 0, {(): lambda x, y: np.ones_like(x)})
    with pytest.raises(ValueError, match="nonzero at a grid node"):
        verify_support_control(one, MollifierConfig(0.2, n=2), r=0.05)


def test_support_control_rejects_an_empty_inner_disc():
    # delta(0.2) is about 0.198 > r, so |x| < r - delta holds no node
    def cut(x, y):
        r = np.sqrt(x**2 + y**2)
        return np.where(r > 0.1, (r - 0.1) ** 2, 0.0)

    g = GridForm.from_function(2, 1 / 16, 0, {(): cut})
    with pytest.raises(ValueError, match="no grid node"):
        verify_support_control(g, MollifierConfig(0.2, n=2), r=0.1)


@pytest.mark.parametrize("h", [0.3, 0.0, -0.5, 3.0, float("nan")])
def test_grid_step_must_divide_the_interval(h):
    # at h = 0.3 the nodes would be 2/7 apart while every stencil reads 0.3
    with pytest.raises(ValueError, match="grid step"):
        GridForm.from_function(1, h, 0, {(): lambda x: x})


def test_grid_steps_in_use_are_accepted():
    for grid in (1, 2, 3, 7, 64, 100, 256):
        assert len(mollify.grid_axis(1 / grid)) == 2 * grid + 1


class _Allocated(Exception):
    pass


def test_grid_size_is_checked_before_allocation(monkeypatch):
    def allocate(h):
        raise _Allocated

    monkeypatch.setattr(mollify, "grid_axis", allocate)
    # 2-D grids up to 1,447 (2,895^2 nodes) and 1-D ones up to 2^22 - 1
    # (2^23 - 1 nodes) reach the allocation; one more cell does not
    for n, grid in ((2, 1024), (2, 1447), (1, 2**22 - 1)):
        with pytest.raises(_Allocated):
            mollify._grid_points(n, 1 / grid)
    for n, grid in ((2, 1448), (1, 2**22), (2, 1e300)):
        with pytest.raises(TooLarge, match="more than"):
            mollify._grid_points(n, 1 / grid)
    with pytest.raises(TooLarge):
        GridForm(2, 1 / 4096, 0, {})


def test_grid_form_rejects_a_component_of_another_shape():
    with pytest.raises(ValueError, match="shape"):
        GridForm(1, 0.25, 0, {(): np.zeros((9, 9))})
    with pytest.raises(ValueError, match="shape"):
        GridForm(2, 0.25, 1, {(0,): np.zeros((9, 8))})


@pytest.mark.parametrize("n, degree, components", [
    (1, 0, {(0,): 1.0, (): 1.0}),  # grid_d used to drop the (0,) component
    (1, 1, {(): 1.0}),
    (2, 1, {(0, 1): 1.0}),
    (2, 1, {(2,): 1.0}),
    (2, 2, {(1, 0): 1.0}),
    (1, 2, {}),
    (2, -1, {}),
])
def test_grid_form_rejects_keys_that_do_not_match_its_degree(n, degree, components):
    shape = (9,) * n
    with pytest.raises(BadDegree):
        GridForm(n, 0.25, degree, {a: np.full(shape, v) for a, v in components.items()})


def test_homotopy_A_shapes():
    om = GridForm.from_function(1, 1 / 32, 1, {(0,): lambda x: x**2})
    a = homotopy_A(om, MollifierConfig(0.1, n=1))
    assert a.degree == 0
    assert a.component(()).shape == om.component((0,)).shape


# ---------------------------------------------------------------------------
# per-node references: one kernel node (or ray node) at a time, through the
# public diffeomorphism and its Jacobian and a plain multilinear formula
# ---------------------------------------------------------------------------

def _ref_interp(arr, h, pts):
    """Multilinear interpolation of grid data at points (N, n) in the open
    ball, corner by corner."""
    npts = arr.shape[0]
    u = (pts + 1.0) / h
    i0 = np.minimum(np.floor(u).astype(int), npts - 2)
    f = u - i0
    total = np.zeros(len(pts))
    for corner in itertools.product((0, 1), repeat=pts.shape[1]):
        wt = np.prod([f[:, d] if c else 1.0 - f[:, d] for d, c in enumerate(corner)], axis=0)
        total += wt * arr[tuple(i0[:, d] + c for d, c in enumerate(corner))]
    return total


def _ref_regularize(omega, cfg):
    """sum_v w_v s_{eps v}^* omega, one kernel node at a time."""
    n, k = omega.n, omega.degree
    mask = omega.mask()
    xs = omega.points()[mask]
    axes = list(itertools.combinations(range(n), k))
    out = {a: np.zeros(len(xs)) for a in axes}
    for v, w in zip(cfg.nodes, cfg.weights):
        ys = ball_diffeo(cfg.epsilon * v, xs)
        J = ball_diffeo_jacobian(cfg.epsilon * v, xs)
        vals = {a: _ref_interp(omega.component(a), omega.h, ys) for a in axes}
        for a in axes:
            if k == 0:
                out[a] += w * vals[a]
            elif k == 1:
                out[a] += w * sum(vals[(j,)] * J[:, j, a[0]] for j in range(n))
            else:
                out[a] += w * vals[a] * np.linalg.det(J)
    return out


def _sample(n, h, k, seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.5, 2.0, size=(n + 1, 3))
    if n == 1:
        fns = [lambda x, c=c[j]: np.sin(c[0] * x + c[1]) * c[2] for j in range(2)]
    else:
        fns = [lambda x, y, c=c[j]: np.sin(c[0] * x + c[1] * y) + c[2] * x * y
               for j in range(3)]
    axes = list(itertools.combinations(range(n), k))
    return GridForm.from_function(n, h, k, {a: fns[i] for i, a in enumerate(axes)})


CASES = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]


@pytest.mark.parametrize("n,k", CASES)
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_regularize_matches_per_node_reference(n, k, eps):
    omega = _sample(n, 1 / 32 if n == 1 else 1 / 16, k, seed=10 * n + k)
    cfg = MollifierConfig(eps, n=n)
    ref = _ref_regularize(omega, cfg)
    got = regularize(omega, cfg)
    mask = omega.mask()
    scale = max(np.abs(r).max() for r in ref.values())
    for a, r in ref.items():
        assert np.abs(got.component(a)[mask] - r).max() <= 1e-12 * scale
        assert np.all(got.component(a)[~mask] == 0.0)


def test_operators_refuse_a_config_of_another_dimension():
    for n in (1, 2):
        omega = _sample(n, 1 / 16, 0, seed=3)
        zero = omega.scale(0.0)  # vanishes on every disc, as support control needs
        cfg = MollifierConfig(0.1, n=3 - n)
        for run in (lambda: regularize(omega, cfg),
                    lambda: homotopy_A(grid_d(omega), cfg),
                    lambda: verify_homotopy(omega, cfg, tol=1.0),
                    lambda: verify_support_control(zero, cfg, r=0.5),
                    lambda: displacement_bound(omega, cfg)):
            with pytest.raises(BadDimension):
                run()


@pytest.mark.parametrize("n", [0, 3])
def test_config_refuses_an_unsupported_dimension(n):
    with pytest.raises(BadDimension):
        MollifierConfig(0.1, n=n)


@pytest.mark.parametrize("kernel_grid", [0, -1])
def test_config_refuses_an_empty_kernel_grid(kernel_grid):
    with pytest.raises(ValueError):
        MollifierConfig(0.1, kernel_grid=kernel_grid)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
def test_cone_S_matches_per_node_reference(n, k):
    omega = _sample(n, 1 / 32 if n == 1 else 1 / 16, k, seed=7 + n + k)
    t, wt = np.polynomial.legendre.leggauss(24)
    t, wt = (t + 1.0) / 2.0, wt / 2.0
    mask = omega.mask()
    xs = omega.points()[mask]
    ray = np.zeros(len(xs))
    for ti, wi in zip(t, wt):
        if k == 1:
            ray += wi * sum(xs[:, j] * _ref_interp(omega.component((j,)), omega.h, ti * xs)
                            for j in range(n))
        else:
            ray += wi * ti * _ref_interp(omega.component((0, 1)), omega.h, ti * xs)
    ref = {(): ray} if k == 1 else {(0,): -xs[:, 1] * ray, (1,): xs[:, 0] * ray}
    got = cone_S(omega)
    assert got.degree == k - 1
    scale = max(np.abs(r).max() for r in ref.values())
    for a, r in ref.items():
        assert np.abs(got.component(a)[mask] - r).max() <= 1e-12 * scale


def _ref_cone(omega):
    """S omega at the ball nodes, one Gauss node and ray point at a time."""
    t, wt = np.polynomial.legendre.leggauss(24)
    xs = omega.points()[omega.mask()]
    ray = np.zeros(len(xs))
    for ti, wi in zip((t + 1.0) / 2.0, wt / 2.0):
        vals = [_ref_interp(omega.component(a), omega.h, ti * xs) for a in omega.components]
        ray += wi * (sum(xs[:, j] * v for j, v in enumerate(vals)) if omega.degree == 1
                     else ti * vals[0])
    return {(): ray} if omega.degree == 1 else {(0,): -xs[:, 1] * ray, (1,): xs[:, 0] * ray}


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
def test_cone_S_matches_the_reference_off_the_origin(n, k):
    # 31 cells: the origin, where every ray starts, falls mid-cell
    omega = _sample(n, 2 / 31, k, seed=17 + n + k)
    assert not np.any(omega.axis() == 0.0)
    ref, got = _ref_cone(omega), cone_S(omega)
    scale = max(np.abs(r).max() for r in ref.values())
    for a, r in ref.items():
        assert np.abs(got.component(a)[omega.mask()] - r).max() <= 1e-12 * scale
        assert np.all(got.component(a)[~omega.mask()] == 0.0)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
def test_cone_S_does_not_depend_on_the_band_size(monkeypatch, n, k):
    omega = _sample(n, 1 / 64, k, seed=50 + n + k)
    rows = len(omega.axis())
    default = cone_S(omega).components
    for band in (1, 7, rows):  # one row; bands that end short of the last row; one band
        monkeypatch.setattr(mollify, "_BAND", band)
        got = cone_S(omega).components
        assert got.keys() == default.keys()
        assert all(np.array_equal(got[a], default[a]) for a in default)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_displacement_bound_matches_per_node_reference(n, eps):
    omega = _sample(n, 1 / 32, 0, seed=n)
    cfg = MollifierConfig(eps, n=n)
    xs = omega.points()[omega.mask()]
    ref = max(float(np.linalg.norm(ball_diffeo(eps * v, xs) - xs, axis=-1).max())
              for v in cfg.nodes)
    assert displacement_bound(omega, cfg) == pytest.approx(ref, rel=1e-12)


def _public_residual(omega, cfg):
    """The homotopy residual of `verify_homotopy`, one public operator at a
    time: R - 1 applied once, through `regularize`, to g = S d omega - omega
    (-omega at the top degree, where d omega = 0), plus d A omega through
    `homotopy_A`."""
    k = omega.degree
    g = cone_S(grid_d(omega)) - omega if k < omega.n else omega.scale(-1.0)
    res = regularize(g, cfg) - g
    if k > 0:
        res = grid_d(homotopy_A(omega, cfg)) + res
    return res.max_norm(interior_region(omega, cfg.epsilon + 2.0 * omega.h))


def _five_component_residual(omega, cfg):
    """d A + A d - (R - 1) composed term by term, as the identity reads:
    R omega, A omega and A d omega each through the public operators."""
    k = omega.degree
    rhs = regularize(omega, cfg) - omega
    if k == 0:
        lhs = homotopy_A(grid_d(omega), cfg)
    elif k < omega.n:
        lhs = grid_d(homotopy_A(omega, cfg)) + homotopy_A(grid_d(omega), cfg)
    else:
        lhs = grid_d(homotopy_A(omega, cfg))
    region = interior_region(omega, cfg.epsilon + 2.0 * omega.h)
    return (lhs - rhs).max_norm(region)


@pytest.mark.parametrize("n,k", CASES)
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
def test_shared_loop_matches_public_operators(n, k, eps):
    # verify_homotopy runs R only on its region and the one-node halo that
    # grid_d reads; the public operators run it on the whole ball
    for h in (1 / 32,) if n == 1 else (1 / 16, 1 / 32):
        omega = _sample(n, h, k, seed=20 + 10 * n + k)
        cfg = MollifierConfig(eps, n=n)
        rep = verify_homotopy(omega, cfg, tol=1.0)
        assert rep.residual == _public_residual(omega, cfg)
        assert rep.detail["collar"] == eps + 2.0 * h
        assert rep.detail["checked"] == interior_region(omega, eps + 2.0 * h).sum()


@pytest.mark.parametrize("n,k", CASES)
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
def test_residual_matches_the_term_by_term_identity(n, k, eps):
    # R is linear, so regularizing S d omega - omega once moves the residual
    # only by rounding
    for h in (1 / 32,) if n == 1 else (1 / 16, 1 / 32):
        omega = _sample(n, h, k, seed=20 + 10 * n + k)
        cfg = MollifierConfig(eps, n=n)
        got = verify_homotopy(omega, cfg, tol=1.0).residual
        assert abs(got - _five_component_residual(omega, cfg)) <= 1e-14 * omega.max_norm()


# ---------------------------------------------------------------------------
# closed forms on multilinear data: multilinear interpolation is exact there,
# and the 24-point rule integrates each ray exactly
# ---------------------------------------------------------------------------

def _multilinear(n, h, k, seed):
    """A degree-k form whose components are c0 + c1 x in 1-D and
    c0 + c1 x + c2 y + c3 x y in 2-D, and its coefficients, one row per
    component."""
    axes = list(itertools.combinations(range(n), k))
    coef = np.random.default_rng(seed).uniform(-2.0, 2.0, (len(axes), 2**n))
    fns = {a: functools.partial(_multilinear_value, c) for a, c in zip(axes, coef)}
    return GridForm.from_function(n, h, k, fns), coef


def _multilinear_value(c, *x):
    """The multilinear function with coefficients c at coordinates x."""
    if len(x) == 1:
        return c[0] + c[1] * x[0]
    return c[0] + c[1] * x[0] + c[2] * x[1] + c[3] * x[0] * x[1]


@pytest.mark.parametrize("n,k", [(n, k) for n, k in CASES if k > 0])
def test_cone_S_matches_the_closed_form_on_multilinear_data(n, k):
    h = 1 / 32 if n == 1 else 1 / 16
    omega, coef = _multilinear(n, h, k, seed=80 + 10 * n + k)
    inner = omega.radius() < 1.0 - 2.0 * h  # every cell that t x reads lies in the ball
    x = omega.points()[inner].T
    # int_0^1 t^(k-1) c(t x) dt: the constant, linear and bilinear terms
    # have the factors t^(k-1), t^k and t^(k+1)
    ray = [c[0] / k + c[1] * x[0] / (k + 1) if n == 1 else
           c[0] / k + (c[1] * x[0] + c[2] * x[1]) / (k + 1) + c[3] * x[0] * x[1] / (k + 2)
           for c in coef]
    want = ({(): sum(xj * r for xj, r in zip(x, ray))} if k == 1
            else {(0,): -x[1] * ray[0], (1,): x[0] * ray[0]})
    got = cone_S(omega)
    for a, w in want.items():
        assert np.abs(got.component(a)[inner] - w).max() <= 1e-13 * omega.max_norm()


@pytest.mark.parametrize("n,k", CASES)
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_regularize_matches_the_closed_form_on_multilinear_data(n, k, eps):
    h = 1 / 32 if n == 1 else 1 / 16
    omega, coef = _multilinear(n, h, k, seed=90 + 10 * n + k)
    cfg = MollifierConfig(eps, n=n)
    # every pulled-back point lies within delta of its node
    inner = omega.radius() < 1.0 - displacement_bound(omega, cfg) - 2.0 * h
    assert inner.sum() > 10
    x = omega.points()[inner]
    want = {a: np.zeros(len(x)) for a in itertools.combinations(range(n), k)}
    for v, w in zip(cfg.nodes, cfg.weights):  # sum_v w_v s_{eps v}^* omega
        vals = [_multilinear_value(c, *ball_diffeo(eps * v, x).T) for c in coef]
        J = ball_diffeo_jacobian(eps * v, x)
        for a in want:
            if k == 0:
                want[a] += w * vals[0]
            elif k == 1:
                want[a] += w * sum(vals[j] * J[:, j, a[0]] for j in range(n))
            else:
                want[a] += w * vals[0] * np.linalg.det(J)
    got = regularize(omega, cfg)
    for a, arr in want.items():
        assert np.abs(got.component(a)[inner] - arr).max() <= 1e-13 * omega.max_norm()


def _ring(omega):
    r = omega.radius()
    return (r > 0.3) & (r < 0.7)


def _half(omega):  # reaches past the ball into the grid corners
    return omega.points()[..., 0] < 0.25


def _empty(omega):
    return np.zeros(omega.mask().shape, dtype=bool)


@pytest.mark.parametrize("n,k", CASES)
@pytest.mark.parametrize("eps", [0.05, 0.2])
@pytest.mark.parametrize("select,block", [(_ring, None), (_half, 7), (_empty, None)],
                         ids=["ring", "block-edge", "empty"])
def test_restricted_loop_is_exact(monkeypatch, n, k, eps, select, block):
    omega = _sample(n, 1 / 32 if n == 1 else 1 / 16, k, seed=40 + 10 * n + k)
    cfg = MollifierConfig(eps, n=n)
    full = regularize(omega, cfg)
    nodes = select(omega)
    if block is not None:  # bands of one row in 2-D, of 7 nodes in 1-D
        assert (nodes & omega.mask()).sum() > 2 * block
        monkeypatch.setattr(mollify, "_BAND_NODES", block)
    got, = mollify._regularize_all([omega], cfg, nodes)
    assert got.degree == k and got.components.keys() == full.components.keys()
    for a, arr in full.components.items():
        assert np.array_equal(got.component(a)[nodes], arr[nodes])
        assert np.all(got.component(a)[~nodes] == 0.0)


@pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
def test_support_residual_is_the_public_operator_on_the_inner_disc(eps):
    g, cfg = _criterion_5_form(), MollifierConfig(eps, n=2)
    rep = verify_support_control(g, cfg, r=0.4)
    inner = g.radius() < 0.4 - rep.detail["delta"]
    assert rep.detail["checked"] == inner.sum() > 0
    assert rep.residual == regularize(g, cfg).max_norm(inner)


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_support_control_interpolates_only_at_the_inner_disc(monkeypatch, eps):
    real, points = mollify._cells, []

    def counting_cells(pts, h, npts, out=None):
        points.append(pts.shape[1])
        return real(pts, h, npts, out)

    monkeypatch.setattr(mollify, "_cells", counting_cells)
    g, cfg = _criterion_5_form(), MollifierConfig(eps, n=2)
    rep = verify_support_control(g, cfg, r=0.4)
    assert 0 < sum(points) <= len(cfg.nodes) * rep.detail["checked"]


def _blocked_outputs():
    cfg = MollifierConfig(0.1, kernel_grid=5, n=2)
    out = []
    for k in (0, 1, 2):
        omega = _sample(2, 1 / 128, k, seed=30 + k)
        out += list(regularize(omega, cfg).components.values())
    out.append(displacement_bound(_sample(2, 1 / 128, 0, seed=30), cfg))
    # the kernel loop over S omega and S d omega - omega together
    out.append(verify_homotopy(_sample(2, 1 / 64, 1, seed=31), cfg, tol=1.0).residual)
    return out


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    default = _blocked_outputs()
    real, built = mollify._table, []

    def counting_table(c, lo, hi):
        built.append((lo, hi))
        return real(c, lo, hi)

    monkeypatch.setattr(mollify, "_table", counting_table)
    omega = _sample(2, 1 / 128, 0, seed=30)
    # bands of 3 rows, which end mid-disc and share each build of the tables
    # with the next ones; bands of 62 rows; one band, one build
    for size in (1000, 16000, omega.mask().size):
        monkeypatch.setattr(mollify, "_BAND_NODES", size)
        got = _blocked_outputs()
        assert len(got) == len(default)
        for a, b in zip(got, default):
            assert np.array_equal(a, b)
    built.clear()  # still one band
    regularize(omega, MollifierConfig(0.1, kernel_grid=5, n=2))
    assert len(built) == 1


def test_kernel_built_once_per_grid_and_dimension(monkeypatch):
    real = mollify._kernel.__wrapped__
    built = []

    def counting_kernel(kernel_grid, n):
        built.append((kernel_grid, n))
        return real(kernel_grid, n)

    configs = []
    post_init = MollifierConfig.__post_init__

    def counting_post_init(self):
        configs.append(self)
        post_init(self)

    monkeypatch.setattr(mollify, "_kernel", functools.lru_cache(maxsize=None)(counting_kernel))
    monkeypatch.setattr(MollifierConfig, "__post_init__", counting_post_init)
    cfg = MollifierConfig(0.1, n=1)
    cfg2 = MollifierConfig(0.1, n=2)
    f2 = GridForm.from_function(2, 1 / 16, 0, {(): lambda x, y: x * y})
    for _ in range(3):
        regularize(f2, cfg2)
        displacement_bound(f2, cfg2)
    other = MollifierConfig(0.2, n=1)
    assert len(configs) == 3
    assert built == [(9, 1), (9, 2)]
    assert other.nodes is cfg.nodes and other.weights is cfg.weights
    assert not cfg.nodes.flags.writeable and not cfg.weights.flags.writeable


def test_mask_built_once_per_grid(monkeypatch):
    real = mollify._ball_mask.__wrapped__
    built = []

    def counting_mask(n, h):
        built.append((n, h))
        return real(n, h)

    monkeypatch.setattr(mollify, "_ball_mask", functools.lru_cache(maxsize=None)(counting_mask))
    om = GridForm.from_function(2, 1 / 16, 1, {(0,): lambda x, y: x * y, (1,): lambda x, y: x})
    verify_homotopy(om, MollifierConfig(0.1, n=2), tol=1.0)
    line = GridForm.from_function(1, 1 / 16, 0, {(): lambda x: x})
    (line + line.scale(2.0)) - line
    assert built == [(2, 1 / 16), (1, 1 / 16)]
    for f in (om, line):
        mask = f.mask()
        assert not mask.flags.writeable
        assert np.array_equal(mask, np.linalg.norm(f.points(), axis=-1) < 1.0)


def test_radius_built_once_per_grid(monkeypatch):
    real = mollify._grid_radius.__wrapped__
    built = []

    def counting_radius(n, h):
        built.append((n, h))
        return real(n, h)

    monkeypatch.setattr(mollify, "_grid_radius",
                        functools.lru_cache(maxsize=None)(counting_radius))
    om = GridForm.from_function(2, 1 / 32, 1, {(0,): lambda x, y: x * y, (1,): lambda x, y: x})
    verify_homotopy(om, MollifierConfig(0.1, n=2), tol=1.0)
    cut = GridForm.from_function(2, 1 / 32, 0,
                                 {(): lambda x, y: np.maximum(x**2 + y**2 - 0.16, 0.0)})
    for eps in (0.1, 0.05):
        verify_support_control(cut, MollifierConfig(eps, n=2), r=0.4)
    assert interior_region(cut, 0.1).sum() > 0
    assert built == [(2, 1 / 32)]
    rad = cut.radius()
    assert rad is om.radius() and not rad.flags.writeable
    assert np.array_equal(rad, np.linalg.norm(cut.points(), axis=-1))


def test_homotopy_2d_h_sweep():
    """The criterion 4 form in 2-D: the residual falls as h halves, at about
    first order (ratios near 1.5 and 1.9), not the h^2 of the 1-D case."""
    bump = lambda x, y: np.exp(-3 * (x**2 + y**2)) * (1 - x**2 - y**2)
    res = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        om = GridForm.from_function(
            2, h, 1,
            {(0,): lambda x, y: bump(x, y) * np.sin(2 * y),
             (1,): lambda x, y: bump(x, y) * np.cos(x + y)},
        )
        res.append(verify_homotopy(om, MollifierConfig(0.1, n=2), tol=1e-2).residual)
    assert max(res) <= 1e-2
    assert res[0] > res[1] > res[2]


# ---------------------------------------------------------------------------
# the kernel loop's cell tables against the corner-weight stencil they replace
# ---------------------------------------------------------------------------

def _stencil(pts, h, npts):
    """Multilinear interpolation stencil of points pts (n, N) in [-1,1]^n on
    a grid of npts^n nodes: the flat indices of the 2^n corners, (2^n, N),
    whose row has the corner bit of axis d as its bit d, and their weights,
    the products of the per-axis factors 1 - f and f, also (2^n, N)."""
    n = len(pts)
    u = np.clip((pts + 1.0) / h, 0.0, npts - 1.000001)
    i0 = u.astype(np.intp)
    f = u - i0
    base, offset, w = 0, 0, 1.0
    for d in range(n):
        shape = (1,) * (n - 1 - d) + (2,) + (1,) * d + (-1,)
        base = base * npts + i0[d]
        offset = offset * npts + np.arange(2).reshape(shape)
        w = w * np.stack([1.0 - f[d], f[d]]).reshape(shape)
    return (base + offset).reshape(2**n, -1), w.reshape(2**n, -1)


def _gather(flat, stencil):
    """Values of the raveled grid array `flat` interpolated on a stencil."""
    idx, w = stencil
    return (np.take(flat, idx) * w).sum(axis=0)


def _table_values(c, h, pts):
    """The kernel loop's interpolant of the grid array c at points pts (n, N),
    through one table of all its cells."""
    npts, N = c.shape[0], pts.shape[1]
    i0, f = mollify._cells(pts, h, npts)
    cell = i0[0] if c.ndim == 1 else i0[0] * (npts - 1) + i0[1]
    out = np.empty(N), np.empty(N), np.empty((N, 2**c.ndim))
    return mollify._interp(mollify._table(c, 0, npts - 1), cell, f, out)


def _test_points(n, h, rng):
    """Random points of [-1,1]^n, points on grid nodes, and points on the top
    edge of each axis, where the stencil is clipped into the last cell."""
    axis = mollify.grid_axis(h)
    pts = [rng.uniform(-1.0, 1.0, (n, 500)), rng.choice(axis, (n, 200))]
    for d in range(n):
        edge = rng.uniform(-1.0, 1.0, (n, 50))
        edge[d] = 1.0
        pts.append(edge)
    return np.concatenate(pts, axis=1)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("h", [1 / 16, 2 / 31, 1 / 128])
def test_table_interpolant_matches_the_stencil(n, h):
    rng = np.random.default_rng(int(7 / h) + n)
    c = rng.uniform(-3.0, 3.0, (len(mollify.grid_axis(h)),) * n)
    pts = _test_points(n, h, rng)
    ref = _gather(c.ravel(), _stencil(pts, h, c.shape[0]))
    assert np.abs(_table_values(c, h, pts) - ref).max() <= 1e-15 * np.abs(c).max()


@pytest.mark.parametrize("n", [1, 2])
def test_table_interpolant_is_zero_where_every_corner_is(n):
    # criterion 5 rests on this: R omega is a sum of exact zeros where omega
    # vanishes at every corner of every pulled-back point's cell
    h = 1 / 32
    rng = np.random.default_rng(n)
    c = rng.uniform(0.5, 2.0, (len(mollify.grid_axis(h)),) * n)
    c[tuple(slice(10, 40) for _ in range(n))] = 0.0
    pts = _test_points(n, h, rng)
    idx, _ = _stencil(pts, h, c.shape[0])
    zero = np.all(c.ravel()[idx] == 0.0, axis=0)
    assert zero.sum() > 50
    assert np.all(_table_values(c, h, pts)[zero] == 0.0)


@pytest.mark.parametrize("n,h", [(1, 1 / 128), (2, 1 / 32)])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.9])
@pytest.mark.parametrize("block", [None, 40])
def test_pulled_back_cells_lie_in_their_tables(monkeypatch, n, h, eps, block):
    """Every cell that the kernel loop looks up lies in the rows of the
    tables built last, and no cell row is built more than 3 times."""
    events = []
    real_table, real_cells = mollify._table, mollify._cells

    def recording_table(c, lo, hi):
        events.append(("table", lo, hi))
        return real_table(c, lo, hi)

    def recording_cells(pts, h, npts, out=None):
        i0, f = real_cells(pts, h, npts, out)
        events.append(("cells", int(i0[0].min()), int(i0[0].max())))
        return i0, f

    monkeypatch.setattr(mollify, "_table", recording_table)
    monkeypatch.setattr(mollify, "_cells", recording_cells)
    if block is not None:  # bands of one row in 2-D, of 40 nodes in 1-D
        monkeypatch.setattr(mollify, "_BAND_NODES", block)
    omega = _sample(n, h, 0, seed=60 + n)
    regularize(omega, MollifierConfig(eps, n=n))
    builds, lookups = 0, 0
    built = np.zeros(len(omega.axis()) - 1, dtype=int)
    for kind, a, b in events:
        if kind == "table":
            lo, hi = a, b
            built[lo:hi] += 1
            builds += 1
        else:
            assert lo <= a and b < hi
            lookups += 1
    assert builds > 0 and lookups > 0
    assert built.max() <= 3


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("h", [1 / 16, 1 / 32, 1 / 64, 1 / 128])
def test_displacement_bound_equals_the_full_walk(n, h):
    # the full walk: every ball node under every kernel node
    omega = _sample(n, h, 0, seed=70 + n)
    xs = omega.axis()[np.array(np.nonzero(omega.mask()))]
    y = mollify._h_inv(xs.T).T
    # kernel_grid 1 has the one node v = 0, so every shift is 0; 2 has no zero node
    for eps, grid in itertools.product((0.01, 0.05, 0.1, 0.2, 0.5, 1.0), (1, 2, 9)):
        cfg = MollifierConfig(eps, kernel_grid=grid, n=n)
        worst = 0.0
        for v in cfg.nodes:
            z = y + (eps * v)[:, None]
            ys = z / np.sqrt(1.0 + (z**2).sum(axis=0)) if np.any(v) else xs
            worst = max(worst, float(np.linalg.norm(ys - xs, axis=0).max()))
        assert displacement_bound(omega, cfg) == worst, (eps, grid)
        assert worst > 0.0 or grid == 1


def test_displacement_bound_evaluates_few_nodes(monkeypatch):
    # the nodes moved under all kernel nodes at once: the first axis of the
    # (grid node, kernel node, coordinate) arrays passed to _h_map
    real, evaluated = mollify._h_map, []

    def counting_h_map(y):
        if y.ndim == 3:
            evaluated.append(y.shape[0])
        return real(y)

    monkeypatch.setattr(mollify, "_h_map", counting_h_map)
    g = _criterion_5_form()
    displacement_bound(g, MollifierConfig(0.05, n=2))
    assert 0 < sum(evaluated) < 0.01 * g.mask().sum()
