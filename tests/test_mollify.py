import numpy as np
import pytest

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
