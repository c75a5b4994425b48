"""Grid-based regularization on the unit ball (dimensions 1 and 2).

The smoothing operator averages pullbacks along the compactly supported
family of ball diffeomorphisms

    s_v = h o (y -> y + v) o h^{-1},   h(y) = y / sqrt(1 + |y|^2),

with a symmetric bump kernel over the shift v.  The homotopy is
A = (R - 1) S with S the classical cone (radial integration) operator, so
d A + A d = R - 1 up to finite-difference, interpolation, and ray
quadrature error, which is verified on an interior region away from the
ball boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCarrier, BadDegree, BadDimension, OutsideDomain

AxisSet = tuple[int, ...]


def grid_axis(h: float) -> np.ndarray:
    npts = int(round(2.0 / h)) + 1
    return np.linspace(-1.0, 1.0, npts)


@dataclass(frozen=True)
class GridForm:
    """Degree-k form sampled on a regular grid over [-1,1]^n, zero outside
    the open unit ball."""

    n: int
    h: float
    degree: int
    components: dict[AxisSet, np.ndarray]

    def __post_init__(self):
        if self.n not in (1, 2):
            raise BadDimension("grids support n in {1, 2}")
        mask = self.mask()
        comps = {}
        for axes, arr in self.components.items():
            arr = np.asarray(arr, dtype=float).copy()
            arr[~mask] = 0.0
            arr.setflags(write=False)
            comps[tuple(axes)] = arr
        object.__setattr__(self, "components", comps)

    def axis(self) -> np.ndarray:
        return grid_axis(self.h)

    def points(self) -> np.ndarray:
        xs = self.axis()
        if self.n == 1:
            return xs[:, None]
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        return np.stack([X, Y], axis=-1)

    def radius(self) -> np.ndarray:
        return np.linalg.norm(self.points(), axis=-1)

    def mask(self) -> np.ndarray:
        return self.radius() < 1.0

    def component(self, axes: AxisSet) -> np.ndarray:
        shape = (len(self.axis()),) * self.n
        return self.components.get(tuple(axes), np.zeros(shape))

    def __add__(self, other: "GridForm") -> "GridForm":
        if other.degree != self.degree:
            raise BadDimension("degree mismatch in grid form sum")
        if (other.n, other.h) != (self.n, self.h):
            raise BadCarrier("grid mismatch in grid form sum")
        comps = {a: arr.copy() for a, arr in self.components.items()}
        for a, arr in other.components.items():
            comps[a] = comps.get(a, 0.0) + arr
        return GridForm(self.n, self.h, self.degree, comps)

    def __sub__(self, other: "GridForm") -> "GridForm":
        return self + other.scale(-1.0)

    def scale(self, s: float) -> "GridForm":
        return GridForm(
            self.n, self.h, self.degree,
            {a: s * arr for a, arr in self.components.items()},
        )

    def max_norm(self, region: np.ndarray | None = None) -> float:
        worst = 0.0
        for arr in self.components.values():
            vals = np.abs(arr[region]) if region is not None else np.abs(arr)
            if vals.size:
                worst = max(worst, float(vals.max()))
        return worst

    @staticmethod
    def from_function(n: int, h: float, degree: int,
                      fns: dict[AxisSet, "callable"]) -> "GridForm":
        xs = grid_axis(h)
        if n == 1:
            pts = (xs,)
        else:
            pts = np.meshgrid(xs, xs, indexing="ij")
        comps = {tuple(a): np.asarray(f(*pts), dtype=float) * np.ones_like(pts[0])
                 for a, f in fns.items()}
        return GridForm(n, h, degree, comps)

    def dump(self) -> str:
        lines = [f"{self.n} {self.degree} {self.h!r}"]
        for axes in sorted(self.components):
            lines.append("component " + " ".join(map(str, axes)))
            for v in self.components[axes].ravel():
                lines.append(repr(float(v)))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MollifierConfig:
    """Discrete kernel for the shift average; weights renormalized to sum
    exactly to 1, symmetric under v -> -v by construction (midpoint grid)."""

    epsilon: float
    kernel_grid: int = 9
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    n: int = 1

    def __post_init__(self):
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")
        g = self.kernel_grid
        centers = (np.arange(g) + 0.5) / g * 2.0 - 1.0
        pts = np.array(list(itertools.product(centers, repeat=self.n)))
        r2 = (pts**2).sum(axis=1)
        w = np.zeros(len(pts))
        inside = r2 < 1.0
        w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        keep = w > 0.0
        pts, w = pts[keep], w[keep]
        w = w / w.sum()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "nodes", pts)
        object.__setattr__(self, "weights", w)


# ---------------------------------------------------------------------------
# the ball diffeomorphism and its Jacobian
# ---------------------------------------------------------------------------

def _h_map(y: np.ndarray) -> np.ndarray:
    s = np.sqrt(1.0 + (y**2).sum(axis=-1, keepdims=True))
    return y / s

def _h_inv(z: np.ndarray) -> np.ndarray:
    r = np.sqrt(np.maximum(1.0 - (z**2).sum(axis=-1, keepdims=True), 1e-300))
    return z / r

def _dh(y: np.ndarray) -> np.ndarray:
    n = y.shape[-1]
    s2 = 1.0 + (y**2).sum(axis=-1)
    eye = np.eye(n)
    outer = y[..., :, None] * y[..., None, :]
    return (s2[..., None, None] * eye - outer) / s2[..., None, None] ** 1.5

def _dh_inv(z: np.ndarray) -> np.ndarray:
    n = z.shape[-1]
    r2 = np.maximum(1.0 - (z**2).sum(axis=-1), 1e-300)
    eye = np.eye(n)
    outer = z[..., :, None] * z[..., None, :]
    return (r2[..., None, None] * eye + outer) / r2[..., None, None] ** 1.5


def ball_diffeo(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Shift by v conjugated through h; identity when v = 0 or |x| = 1."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r > 1.0 + 1e-12):
        raise OutsideDomain("point outside the closed unit ball")
    if not np.any(v):
        return x.copy()
    out = pts.copy()
    inside = r < 1.0
    out[inside] = _h_map(_h_inv(pts[inside]) + v)
    return out[0] if single else out


def ball_diffeo_jacobian(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d s_v at interior points x (shape (..., n) -> (..., n, n))."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    x = np.asarray(x, dtype=float)
    y = _h_inv(x)
    return _dh(y + v) @ _dh_inv(x)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def _interp(arr: np.ndarray, h: float, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of grid data at points in [-1,1]^n."""
    n = pts.shape[-1]
    npts = arr.shape[0]
    u = np.clip((pts + 1.0) / h, 0.0, npts - 1.000001)
    i0 = np.floor(u).astype(int)
    f = u - i0
    if n == 1:
        a = arr[i0[..., 0]]
        b = arr[np.minimum(i0[..., 0] + 1, npts - 1)]
        return a * (1 - f[..., 0]) + b * f[..., 0]
    i1 = np.minimum(i0 + 1, npts - 1)
    fx, fy = f[..., 0], f[..., 1]
    a00 = arr[i0[..., 0], i0[..., 1]]
    a10 = arr[i1[..., 0], i0[..., 1]]
    a01 = arr[i0[..., 0], i1[..., 1]]
    a11 = arr[i1[..., 0], i1[..., 1]]
    return (a00 * (1 - fx) * (1 - fy) + a10 * fx * (1 - fy)
            + a01 * (1 - fx) * fy + a11 * fx * fy)


def _axis_sets(n: int, k: int):
    return list(itertools.combinations(range(n), k))


def _pullback(omega: GridForm, v: np.ndarray) -> dict[AxisSet, np.ndarray]:
    """Components of s_v^* omega at the active grid nodes."""
    n, k = omega.n, omega.degree
    pts = omega.points()
    mask = omega.mask()
    xs = pts[mask]
    ys = ball_diffeo(v, xs)
    shape = mask.shape
    out: dict[AxisSet, np.ndarray] = {}
    if k == 0:
        vals = _interp(omega.component(()), omega.h, ys)
        arr = np.zeros(shape)
        arr[mask] = vals
        return {(): arr}
    J = ball_diffeo_jacobian(v, xs)
    if k == 1:
        w = {a: _interp(omega.component((a,)), omega.h, ys) for a in range(n)}
        for i in range(n):
            vals = sum(w[j] * J[..., j, i] for j in range(n))
            arr = np.zeros(shape)
            arr[mask] = vals
            out[(i,)] = arr
        return out
    # k == 2, n == 2
    detJ = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    vals = _interp(omega.component((0, 1)), omega.h, ys) * detJ
    arr = np.zeros(shape)
    arr[mask] = vals
    return {(0, 1): arr}


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def regularize(omega: GridForm, cfg: MollifierConfig) -> GridForm:
    """Kernel-averaged pullback R; exact identity at epsilon = 0 and on
    constant 0-forms."""
    if cfg.epsilon == 0.0:
        return omega
    kernel = cfg if cfg.n == omega.n else MollifierConfig(
        cfg.epsilon, cfg.kernel_grid, n=omega.n
    )
    acc: dict[AxisSet, np.ndarray] = {}
    for v, w in zip(kernel.nodes, kernel.weights):
        comp = _pullback(omega, cfg.epsilon * v)
        for a, arr in comp.items():
            acc[a] = acc.get(a, 0.0) + w * arr
    return GridForm(omega.n, omega.h, omega.degree, acc)


def grid_d(omega: GridForm) -> GridForm:
    """Finite-difference exterior derivative; central differences, second
    order in the interior (degrades near the mask boundary)."""
    n, k = omega.n, omega.degree
    if k >= n:
        raise BadDimension("derivative of a top-degree grid form")
    def deriv(arr, axis):
        return np.gradient(arr, omega.h, axis=axis, edge_order=2)
    comps: dict[AxisSet, np.ndarray] = {}
    if k == 0:
        f = omega.component(())
        for i in range(n):
            comps[(i,)] = deriv(f, i)
    else:  # k == 1, n == 2
        comps[(0, 1)] = deriv(omega.component((1,)), 0) - deriv(
            omega.component((0,)), 1
        )
    return GridForm(n, omega.h, k + 1, comps)


def cone_S(omega: GridForm, quad_nodes: int = 24) -> GridForm:
    """Radial homotopy (S omega)(x) = int_0^1 t^(k-1) iota_x omega(t x) dt."""
    n, k = omega.n, omega.degree
    if k < 1:
        raise BadDegree("cone operator needs degree >= 1")
    t, wt = np.polynomial.legendre.leggauss(quad_nodes)
    t = (t + 1.0) / 2.0
    wt = wt / 2.0
    pts = omega.points()
    mask = omega.mask()
    xs = pts[mask]
    shape = mask.shape
    comps: dict[AxisSet, np.ndarray] = {}
    if k == 1:
        vals = np.zeros(len(xs))
        for ti, wi in zip(t, wt):
            for j in range(n):
                vals += wi * xs[:, j] * _interp(
                    omega.component((j,)), omega.h, ti * xs
                )
        arr = np.zeros(shape)
        arr[mask] = vals
        comps[()] = arr
        return GridForm(n, omega.h, 0, comps)
    # k == 2, n == 2: iota_x (f dx0^dx1) = f * (x0 dx1 - x1 dx0)
    ray = np.zeros(len(xs))
    for ti, wi in zip(t, wt):
        ray += wi * ti * _interp(omega.component((0, 1)), omega.h, ti * xs)
    for i, sign, other in ((0, -1.0, 1), (1, 1.0, 0)):
        arr = np.zeros(shape)
        arr[mask] = sign * xs[:, other] * ray
        comps[(i,)] = arr
    return GridForm(n, omega.h, 1, comps)


def homotopy_A(omega: GridForm, cfg: MollifierConfig) -> GridForm:
    """A = (R - 1) S."""
    s = cone_S(omega)
    return regularize(s, cfg) - s


@dataclass(frozen=True)
class MollifyReport:
    residual: float
    tol: float
    passed: bool
    detail: dict[str, float]


def interior_region(omega: GridForm, collar: float) -> np.ndarray:
    return omega.radius() < 1.0 - collar


def verify_homotopy(omega: GridForm, cfg: MollifierConfig, tol: float) -> MollifyReport:
    """Residual of d A + A d - (R - 1) away from the mask boundary.

    For 0-forms the d A term is absent and the identity reads
    A(d omega) = R omega - omega.
    """
    k = omega.degree
    rhs = regularize(omega, cfg) - omega
    if k == 0:
        lhs = homotopy_A(grid_d(omega), cfg)
    elif k < omega.n:
        lhs = grid_d(homotopy_A(omega, cfg)) + homotopy_A(grid_d(omega), cfg)
    else:
        lhs = grid_d(homotopy_A(omega, cfg))
    collar = cfg.epsilon + 2.0 * omega.h
    region = interior_region(omega, collar)
    residual = (lhs - rhs).max_norm(region)
    return MollifyReport(
        residual=residual, tol=tol, passed=residual <= tol,
        detail={"collar": collar, "epsilon": cfg.epsilon, "h": omega.h},
    )


def displacement_bound(omega: GridForm, cfg: MollifierConfig) -> float:
    """Max node displacement of s_{eps v} over the kernel support."""
    if cfg.epsilon == 0.0:
        return 0.0
    pts = omega.points()[omega.mask()]
    kernel = MollifierConfig(cfg.epsilon, cfg.kernel_grid, n=omega.n)
    worst = 0.0
    for v in kernel.nodes:
        ys = ball_diffeo(cfg.epsilon * v, pts)
        worst = max(worst, float(np.linalg.norm(ys - pts, axis=-1).max()))
    return worst


def verify_support_control(
    omega: GridForm, cfg: MollifierConfig, r: float,
    center: np.ndarray | None = None, tol: float = 1e-12,
) -> MollifyReport:
    """If omega vanishes on a disc of radius r, R omega vanishes on the disc
    shrunk by the computed displacement bound delta(eps)."""
    center = np.zeros(omega.n) if center is None else np.asarray(center, float)
    delta = displacement_bound(omega, cfg)
    dist = np.linalg.norm(omega.points() - center, axis=-1)
    inner = dist < r - delta
    reg = regularize(omega, cfg)
    worst = reg.max_norm(inner)
    return MollifyReport(
        residual=worst, tol=tol, passed=worst <= tol,
        detail={"delta": delta, "r": r, "epsilon": cfg.epsilon},
    )
