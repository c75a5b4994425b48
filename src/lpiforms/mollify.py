"""Grid-based regularization on the unit ball (dimensions 1 and 2).

The smoothing operator averages pullbacks along the compactly supported
family of ball diffeomorphisms

    s_v = h o (y -> y + v) o h^{-1},   h(y) = y / sqrt(1 + |y|^2),

with a symmetric bump kernel over the shift v.  The homotopy is
A = (R - 1) S with S the classical cone (radial integration) operator, so
d A + A d = R - 1 up to finite-difference, interpolation, and ray
quadrature error, which is verified on an interior region away from the
ball boundary.

The Jacobian factors as  D s_{eps v}(x) = Dh(z) . Dh^{-1}(x)  with
z = h^{-1}(x) + eps v, and only the first factor depends on v.  Both have
closed forms,

    Dh(z) = (s2 I - z z^T) / s2^{3/2},        s2 = 1 + |z|^2,
    Dh^{-1}(x) = (r2 I + x x^T) / r2^{3/2},   r2 = 1 - |x|^2,

with determinants s2^{-2} and r2^{-2} in 2-D.  So the kernel loop computes
h^{-1}(x) once per call, accumulates w^T Dh(z) (or det Dh(z)) over the
kernel nodes, and applies Dh^{-1}(x) once at the end.

The loop walks the active nodes in blocks of `_BLOCK` nodes, so that its
per-node index, weight and shift arrays stay cache-sized instead of spanning
the grid.  Within a block, each kernel node gets one shift and one
interpolation stencil, and every component of every form averaged in that
call is gathered through them: `regularize` passes one form, and
`verify_homotopy` passes omega, S omega and S d omega together.  `cone_S`
and `displacement_bound` walk the same blocks.  Each node's arithmetic is
the same whatever the blocks, so the results do not depend on `_BLOCK`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCarrier, BadDegree, BadDimension, OutsideDomain

AxisSet = tuple[int, ...]


def grid_axis(h: float) -> np.ndarray:
    npts = int(round(2.0 / h)) + 1
    return np.linspace(-1.0, 1.0, npts)


def _grid_points(n: int, h: float) -> np.ndarray:
    xs = grid_axis(h)
    if n == 1:
        return xs[:, None]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([X, Y], axis=-1)


@functools.lru_cache(maxsize=32)
def _ball_mask(n: int, h: float) -> np.ndarray:
    """The mask of the open unit ball on the (n, h) grid, built once per
    (n, h); read-only, since every GridForm on that grid shares it."""
    mask = np.linalg.norm(_grid_points(n, h), axis=-1) < 1.0
    mask.setflags(write=False)
    return mask


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
        return _grid_points(self.n, self.h)

    def radius(self) -> np.ndarray:
        return np.linalg.norm(self.points(), axis=-1)

    def mask(self) -> np.ndarray:
        """The nodes in the open unit ball; shared per (n, h), read-only."""
        return _ball_mask(self.n, self.h)

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
        nodes, weights = _kernel(self.kernel_grid, self.n)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@functools.lru_cache(maxsize=None)
def _kernel(kernel_grid: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-grid nodes in the open unit n-ball and bump weights summing
    to 1, built once per (kernel_grid, n); read-only, since callers share
    them."""
    centers = (np.arange(kernel_grid) + 0.5) / kernel_grid * 2.0 - 1.0
    pts = np.array(list(itertools.product(centers, repeat=n)))
    r2 = (pts**2).sum(axis=1)
    w = np.zeros(len(pts))
    inside = r2 < 1.0
    w[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
    keep = w > 0.0
    pts, w = pts[keep], w[keep]
    w = w / w.sum()
    pts.setflags(write=False)
    w.setflags(write=False)
    return pts, w


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

def _stencil(pts: np.ndarray, h: float, npts: int):
    """Multilinear interpolation stencil of points pts (n, N) in [-1,1]^n on
    a grid of npts^n nodes: flat corner indices of shape (2,)*n + (N,),
    whose axis n-1-d holds the corner bit of axis d, and one weight factor
    per axis broadcastable to it."""
    n = len(pts)
    u = np.clip((pts + 1.0) / h, 0.0, npts - 1.000001)
    i0 = u.astype(np.intp)  # floor, as u >= 0
    f = u - i0
    base, offset, factors = 0, 0, []
    for d in range(n):
        shape = (1,) * (n - 1 - d) + (2,) + (1,) * d + (-1,)
        base = base * npts + i0[d]
        offset = offset * npts + np.arange(2).reshape(shape)
        factors.append(np.stack([1.0 - f[d], f[d]]).reshape(shape))
    return base + offset, factors


def _gather(flat: np.ndarray, stencil) -> np.ndarray:
    """Values of the raveled grid array `flat` interpolated on a stencil,
    rounded as a00 (1-fx)(1-fy) + a10 fx (1-fy) + a01 (1-fx) fy + ... is:
    `verify_homotopy` differentiates R of a 0-form, which amplifies any
    change of rounding by 1/h."""
    idx, factors = stencil
    vals = flat[idx]
    for fac in factors:
        vals *= fac
    return vals.reshape(-1, vals.shape[-1]).sum(axis=0)


def _axis_sets(n: int, k: int):
    return list(itertools.combinations(range(n), k))


def _shift(y: np.ndarray, xs: np.ndarray, ev: np.ndarray):
    """For points xs (n, N) with y = h^{-1}(xs): z = y + ev, s2 = 1 + |z|^2
    and s_ev(xs) = h(z), which is xs itself when ev = 0 (as in
    `ball_diffeo`)."""
    z = y + ev[:, None]
    s2 = 1.0 + (z**2).sum(axis=0)
    ys = z / np.sqrt(s2) if np.any(ev) else xs
    return z, s2, ys


def _active_nodes(omega: GridForm) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the open ball and its nodes as an (n, N) array."""
    mask = omega.mask()
    return mask, np.ascontiguousarray(omega.points()[mask].T)


# Active nodes per block of the kernel and ray loops.  At 8,192 nodes a
# block's (2, 2, N) stencil indices and gathered values take 256 kB each and
# stay in cache; full-grid ones (0.4-1.6 MB each at h = 1/128) were freshly
# allocated, and page-faulted, for every kernel node.  Of 2,048-32,768, the
# 2-D h = 1/128 homotopy check ran fastest at 8,192 (2-vCPU Xeon, 4 MB L2).
_BLOCK = 8192


def _blocks(N: int) -> list[slice]:
    """Consecutive slices of at most `_BLOCK` nodes that cover range(N)."""
    return [slice(i, min(i + _BLOCK, N)) for i in range(0, N, _BLOCK)]


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def _regularize_all(forms: list[GridForm], cfg: MollifierConfig) -> list[GridForm]:
    """R of each of `forms`, which share one grid but may differ in degree,
    in one kernel loop: per block and kernel node, one shift and one stencil
    serve every component of every form."""
    if cfg.epsilon == 0.0:
        return list(forms)
    n, h = forms[0].n, forms[0].h
    mask, xs = _active_nodes(forms[0])
    r2 = np.maximum(1.0 - (xs**2).sum(axis=0), 1e-300)
    y = xs / np.sqrt(r2)  # h^{-1}(x), as in `_h_inv`
    axes = [_axis_sets(n, f.degree) for f in forms]
    comps = [[f.component(a).ravel() for a in ax] for f, ax in zip(forms, axes)]
    accs = [np.zeros((len(ax), xs.shape[1])) for ax in axes]
    kernel = [(cfg.epsilon * v, w) for v, w in zip(*_kernel(cfg.kernel_grid, n))]
    for b in _blocks(xs.shape[1]):
        xb, yb = xs[:, b], y[:, b]
        for ev, w in kernel:
            z, s2, ys = _shift(yb, xb, ev)
            st = _stencil(ys, h, mask.shape[0])
            for f, cs, acc in zip(forms, comps, accs):
                vals = np.array([_gather(c, st) for c in cs])
                if f.degree == 1:  # the row vector vals^T Dh(z)
                    vals = (s2 * vals - z * (vals * z).sum(axis=0)) / s2**1.5
                elif f.degree == 2:  # det Dh(z)
                    vals = vals / s2**2
                acc[:, b] += w * vals
    out = []
    for f, ax, acc in zip(forms, axes, accs):
        if f.degree == 1:  # times Dh^{-1}(x)
            acc = (r2 * acc + xs * (acc * xs).sum(axis=0)) / r2**1.5
        elif f.degree == 2:
            acc = acc / r2**2
        grid = np.zeros((len(ax),) + mask.shape)
        grid[:, mask] = acc
        out.append(GridForm(n, h, f.degree, dict(zip(ax, grid))))
    return out


def regularize(omega: GridForm, cfg: MollifierConfig) -> GridForm:
    """Kernel-averaged pullback R; exact identity at epsilon = 0 and on
    constant 0-forms."""
    return _regularize_all([omega], cfg)[0]


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
    mask, xs = _active_nodes(omega)
    comps = [omega.component(a).ravel() for a in _axis_sets(n, k)]
    ray = np.zeros(xs.shape[1])
    for b in _blocks(xs.shape[1]):
        xb = xs[:, b]
        for ti, wi in zip(t, wt):
            st = _stencil(ti * xb, omega.h, mask.shape[0])
            if k == 1:
                for j in range(n):
                    ray[b] += wi * xb[j] * _gather(comps[j], st)
            else:
                ray[b] += wi * ti * _gather(comps[0], st)
    if k == 1:
        axes, rows = [()], [ray]
    else:  # k == 2, n == 2: iota_x (f dx0^dx1) = f * (x0 dx1 - x1 dx0)
        axes, rows = [(0,), (1,)], [-xs[1] * ray, xs[0] * ray]
    out = np.zeros((len(axes),) + mask.shape)
    out[:, mask] = rows
    return GridForm(n, omega.h, k - 1, dict(zip(axes, out)))


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
    sources = ([omega] if k > 0 else []) + ([grid_d(omega)] if k < omega.n else [])
    cones = [cone_S(f) for f in sources]  # S omega and S d omega, where defined
    r_omega, *r_cones = _regularize_all([omega, *cones], cfg)
    a = [r - s for r, s in zip(r_cones, cones)]  # A = (R - 1) S
    rhs = r_omega - omega
    if k == 0:
        lhs = a[0]
    elif k < omega.n:
        lhs = grid_d(a[0]) + a[1]
    else:
        lhs = grid_d(a[0])
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
    xs = _active_nodes(omega)[1]
    y = _h_inv(xs.T).T
    worst = 0.0
    for b in _blocks(xs.shape[1]):
        xb, yb = xs[:, b], y[:, b]
        for v in _kernel(cfg.kernel_grid, omega.n)[0]:
            ys = _shift(yb, xb, cfg.epsilon * v)[2]
            worst = max(worst, float(np.linalg.norm(ys - xb, axis=0).max()))
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
