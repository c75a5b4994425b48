import functools
import itertools

import numpy as np
import pytest

from lpiforms import mollify
from lpiforms.errors import BadCarrier, BadDegree, BadDimension, OutsideDomain
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


def test_support_control():
    def cut(x, y):
        r = np.sqrt(x**2 + y**2)
        return np.where(r > 0.4, (r - 0.4) ** 2, 0.0)

    g = GridForm.from_function(2, 1 / 64, 0, {(): cut})
    rep = verify_support_control(g, MollifierConfig(0.1, n=2), r=0.4)
    assert rep.passed
    assert rep.detail["delta"] < 0.11


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


def test_regularize_takes_dimension_from_the_form():
    omega = _sample(2, 1 / 16, 1, seed=3)
    got = regularize(omega, MollifierConfig(0.1, n=1))
    ref = _ref_regularize(omega, MollifierConfig(0.1, n=2))
    for a, r in ref.items():
        assert np.abs(got.component(a)[omega.mask()] - r).max() <= 1e-12 * np.abs(r).max()


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
    time: each R through `regularize`, each A through `homotopy_A`."""
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
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_shared_loop_matches_public_operators(n, k, eps):
    omega = _sample(n, 1 / 32 if n == 1 else 1 / 16, k, seed=20 + 10 * n + k)
    cfg = MollifierConfig(eps, n=n)
    rep = verify_homotopy(omega, cfg, tol=1.0)
    assert rep.residual == _public_residual(omega, cfg)
    assert rep.detail["collar"] == eps + 2.0 * omega.h


def _blocked_outputs():
    cfg = MollifierConfig(0.1, kernel_grid=5, n=2)
    out = []
    for k in (0, 1, 2):
        omega = _sample(2, 1 / 128, k, seed=30 + k)
        out += list(regularize(omega, cfg).components.values())
        if k > 0:
            out += list(cone_S(omega).components.values())
    out.append(displacement_bound(_sample(2, 1 / 128, 0, seed=30), cfg))
    return out


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    default = _blocked_outputs()
    nodes = int(_sample(2, 1 / 128, 0, seed=30).mask().sum())
    for size in (1000, nodes):  # block edges mid-row; one block
        monkeypatch.setattr(mollify, "_BLOCK", size)
        assert len(mollify._blocks(nodes)) == -(-nodes // size)
        got = _blocked_outputs()
        assert len(got) == len(default)
        for a, b in zip(got, default):
            assert np.array_equal(a, b)


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
    f2 = GridForm.from_function(2, 1 / 16, 0, {(): lambda x, y: x * y})
    for _ in range(3):
        regularize(f2, cfg)  # the kernel dimension comes from the form
        displacement_bound(f2, cfg)
    other = MollifierConfig(0.2, n=1)
    assert len(configs) == 2
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
