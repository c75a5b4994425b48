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
closed forms; with p = h(z), the point the kernel loop interpolates at,

    Dh(z) = rs (I - p p^T),                   rs = (1 + |z|^2)^{-1/2},
    Dh^{-1}(x) = (r2 I + x x^T) / r2^{3/2},   r2 = 1 - |x|^2,

with determinants rs^4 and r2^{-2} in 2-D.  So the kernel loop computes
h^{-1}(x) once per call, accumulates w rs (c - p (c . p)) (or w rs^4 c) over
the kernel nodes, c the values interpolated at p, and applies Dh^{-1}(x)
once at the end.

The kernel loop runs only at the nodes its caller reads: `regularize`
passes the whole ball, `verify_homotopy` its interior region grown by the
one node that central differences read along each axis, and
`verify_support_control` its inner disc.  Every other node of the output
is 0.  The loop walks those nodes in bands of whole grid rows that hold at
most `_BAND_NODES` nodes, so that its per-node arrays stay cache-sized
instead of spanning the grid.  h is 1-Lipschitz, so a pulled-back point
lies within eps max |v| of its node, and each band interpolates through
per-cell coefficient tables of only the grid rows it can reach: one 32-byte
row per cell, read with one `take` per point and component.  At a wide eps
one build of the tables serves several bands, so that no row is built more
than 3 times.  Within a band, each kernel node gets one shift and one cell
lookup, and every component of every form averaged in that call is
interpolated through them: `regularize` passes one form, and
`verify_homotopy` passes S omega and g = S d omega - omega together.  R is
linear, so A d omega - (R - 1) omega = (R - 1) g, and one regularization of
g stands in for those of omega and S d omega: a 2-D 1-form check
interpolates 3 components per kernel node, one of S omega and two of g.
`displacement_bound` evaluates only the nodes that a bound on ||Dh|| does
not rule out.  The ray points t x of `cone_S` form a grid again, so it
interpolates one axis at a time, in bands of `_BAND` grid rows.  Each
node's arithmetic is the same whatever the bands and other nodes, so the
results do not depend on `_BAND_NODES`, `_BAND` or the node set.

A grid of more than `_MAX_NODES` nodes is refused with `TooLarge` before
any grid-sized array is allocated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCarrier, BadDegree, BadDimension, OutsideDomain, TooLarge
from .polyform import simplex_rule

AxisSet = tuple[int, ...]

# Where omega vanishes at every shifted node, R omega is a sum of exact zeros,
# so the support check needs only a rounding-level threshold.
SUPPORT_TOL = 1e-12

# The most nodes a grid may have: 8.4 million, so that a 2-D grid of 1,024
# (h = 1/1024, 4.2 million nodes) passes.  One component of such a grid takes
# 34 MB, and `verify_homotopy` holds several grid arrays at once.
_MAX_NODES = 2**23


def grid_axis(h: float) -> np.ndarray:
    """The nodes -1, -1 + h, ..., 1.  The stencils and collars read h as the
    node spacing, so 2/h must be a positive integer (up to rounding)."""
    cells = round(2.0 / h) if h > 0 else 0
    if cells < 1 or abs(2.0 / h - cells) > 1e-9 * cells:
        raise ValueError(f"grid step {h!r} does not divide [-1, 1] into whole cells")
    return np.linspace(-1.0, 1.0, cells + 1)


def _grid_points(n: int, h: float) -> np.ndarray:
    if h > 0 and 2.0 / h + 1.0 > _MAX_NODES ** (1.0 / n):  # before any allocation
        raise TooLarge(f"a {n}-D grid of step {h!r} has more than {_MAX_NODES} nodes")
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
        if not 0 <= self.degree <= self.n:
            raise BadDegree(f"degree {self.degree} on an {self.n}-D grid")
        valid = _axis_sets(self.n, self.degree)
        mask = self.mask()
        comps = {}
        for axes, arr in self.components.items():
            if tuple(axes) not in valid:
                raise BadDegree(f"component {axes} is not a sorted "
                                f"{self.degree}-subset of range({self.n})")
            arr = np.asarray(arr, dtype=float)
            if arr.shape != mask.shape:
                raise ValueError(f"component {axes} has shape {arr.shape}, grid {mask.shape}")
            arr = np.where(mask, arr, 0.0)
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
        comps = dict(self.components)  # read-only arrays; `+` below builds new ones
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
        pts = np.moveaxis(_grid_points(n, h), -1, 0)
        comps = {tuple(a): np.asarray(f(*pts), dtype=float) * np.ones_like(pts[0])
                 for a, f in fns.items()}
        return GridForm(n, h, degree, comps)


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
        if self.n not in (1, 2):
            raise BadDimension("kernels support n in {1, 2}")
        if self.kernel_grid < 1:
            raise ValueError("kernel_grid must be at least 1")
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

def _cells(pts: np.ndarray, h: float, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of points pts (n, N) in [-1,1]^n on a grid of npts nodes per
    axis: per axis, the index i0 of the cell's first node and the fraction f
    of the way to the next, both (n, N); a point on the top edge is clipped
    into the last cell, at f just below 1."""
    u = np.minimum((pts + 1.0) / h, npts - 1.000001)
    i0 = u.astype(np.intp)  # floor, as u >= 0
    return i0, u - i0


def _table(c: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The multilinear interpolant of the grid array c on the cells of rows
    lo..hi-1 (axis 0), one row of coefficients per cell in row-major order:
    [a, b] in 1-D, for the value a + b f0, and [a, b, c, d] in 2-D, for
    a + b f0 + f1 (c + d f0), with f the fractions of `_cells`."""
    c = c[lo:hi + 1]
    t = np.empty(tuple(k - 1 for k in c.shape) + (2**c.ndim,))
    if c.ndim == 1:
        t[:, 0] = c[:-1]
        np.subtract(c[1:], c[:-1], out=t[:, 1])
        return t
    t[..., 0] = c[:-1, :-1]
    np.subtract(c[1:, :-1], c[:-1, :-1], out=t[..., 1])
    np.subtract(c[:-1, 1:], c[:-1, :-1], out=t[..., 2])
    np.subtract(c[1:, 1:], c[1:, :-1], out=t[..., 3])
    t[..., 3] -= t[..., 2]
    return t.reshape(-1, 4)


def _interp(tab: np.ndarray, cell: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Values of a `_table` at points in its cells `cell` with fractions f."""
    t = tab.take(cell, axis=0)
    if len(f) == 1:
        return t[:, 0] + t[:, 1] * f[0]
    return t[:, 0] + t[:, 1] * f[0] + f[1] * (t[:, 2] + t[:, 3] * f[0])


def _axis_sets(n: int, k: int):
    return list(itertools.combinations(range(n), k))


def _shift(y: np.ndarray, xs: np.ndarray, ev: np.ndarray):
    """For points xs (n, N) with y = h^{-1}(xs) and z = y + ev: s_ev(xs) =
    h(z), which is xs itself when ev = 0 (as in `ball_diffeo`), and
    rs = (1 + |z|^2)^{-1/2}, with which Dh(z) = rs (I - h(z) h(z)^T)."""
    z = y + ev[:, None]
    s = np.sqrt(1.0 + (z**2).sum(axis=0))
    return (z / s if np.any(ev) else xs), 1.0 / s


def _check_dimension(omega: GridForm, cfg: MollifierConfig) -> None:
    if cfg.n != omega.n:
        raise BadDimension(f"a {cfg.n}-D kernel on a {omega.n}-D grid")


def _active_nodes(omega: GridForm) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the open ball and its nodes as an (n, N) array."""
    mask = omega.mask()
    return mask, omega.axis()[np.array(np.nonzero(mask))]


# Grid nodes per band of the kernel loop: its bands are the most whole rows
# (axis 0) that hold no more, and at least one row; 36 rows, with 1.6 MB of
# tables, in the 2-D check at h = 1/128.  Blocks of 2,048-32,768 nodes ran
# fastest at 8,192, and bands of 64 rows at any grid raised the benchmark's
# peak RSS by 3.5 % (2-vCPU Xeon).
_BAND_NODES = 8192

# Grid rows per band of `cone_S`; a gathered band takes about 1 MB.  Of
# 16-128 rows and whole grids, a 1-form and a 2-form cone at h = 1/128 and
# 1/256 ran fastest at 64 (40/156 ms against 43/192 ms whole; 2-vCPU Xeon).
_BAND = 64


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def _kernel_sums(comps: list[list[np.ndarray]], degrees: list[int], nodes: np.ndarray,
                 xs: np.ndarray, y: np.ndarray, cfg: MollifierConfig, h: float) -> list[np.ndarray]:
    """Per form, given by its grid components `comps` and its degree, the sum
    over the kernel nodes v of w_v times its values at s_{eps v}(x), times
    Dh(z) for 1-forms and det Dh(z) for 2-forms, at the nodes x of the
    boolean grid `nodes`: xs (n, N) in row-major order, y = h^{-1}(xs)."""
    n, N, npts = xs.shape[0], xs.shape[1], nodes.shape[0]
    sums = [np.zeros((len(cs), N)) for cs in comps]
    if not N:
        return sums
    per_row = np.count_nonzero(nodes.reshape(npts, -1), axis=1)
    start = np.concatenate([[0], np.cumsum(per_row)])  # each row's first node
    filled = np.flatnonzero(per_row)
    band = max(1, _BAND_NODES // int(per_row.max()))
    vs, ws = _kernel(cfg.kernel_grid, n)
    shifts = cfg.epsilon * vs
    # h is 1-Lipschitz, so a point moves by at most eps |v|: less than `reach`
    # rows, with one row to spare for rounding
    reach = int(np.linalg.norm(shifts, axis=1).max() / h) + 2
    # one build of the tables serves the bands of `span` >= reach rows, so
    # that no cell row is built more than 3 times however wide eps is
    span = band * -(-reach // band)
    lo = hi = -1
    for r in range(filled[0], filled[-1] + 1, band):
        b = slice(start[r], start[min(r + band, npts)])
        if max(r - reach, 0) < lo or min(r + band + reach, npts - 1) > hi:
            tabs = None  # freed before the next ones are built
            lo, hi = max(r - reach, 0), min(r + span + reach, npts - 1)
            tabs = [[_table(c, lo, hi) for c in cs] for cs in comps]
        xb, yb = xs[:, b], y[:, b]
        for ev, w in zip(shifts, ws):
            ps, rs = _shift(yb, xb, ev)
            i0, f = _cells(ps, h, npts)
            cell = i0[0] - lo if n == 1 else (i0[0] - lo) * (npts - 1) + i0[1]
            for k, ts, acc in zip(degrees, tabs, sums):
                vals = np.array([_interp(t, cell, f) for t in ts])
                if k == 0:
                    acc[:, b] += w * vals
                elif k == 1:  # the row vector vals^T Dh(z)
                    acc[:, b] += (w * rs) * (vals - ps * (vals * ps).sum(axis=0))
                else:  # det Dh(z)
                    acc[:, b] += (w * rs**4) * vals
    return sums


def _regularize_all(forms: list[GridForm], cfg: MollifierConfig,
                    nodes: np.ndarray) -> list[GridForm]:
    """R of each of `forms`, which share one grid but may differ in degree,
    at the grid nodes where the boolean array `nodes` is true, and 0 at every
    other node, in one kernel loop: per band and kernel node, one shift and
    one cell lookup serve every component of every form.  The loop's cost
    grows with the number of components, so a caller that needs R of a
    linear combination passes the combination, not its terms."""
    n, h = forms[0].n, forms[0].h
    _check_dimension(forms[0], cfg)
    if cfg.epsilon == 0.0:  # R is the identity
        return [GridForm(n, h, f.degree, {a: np.where(nodes, c, 0.0)
                                          for a, c in f.components.items()})
                for f in forms]
    mask, xs = _active_nodes(forms[0])
    nodes = nodes & mask  # R is 0 outside the ball
    xs = np.ascontiguousarray(xs[:, nodes[mask]])
    r2 = np.maximum(1.0 - (xs**2).sum(axis=0), 1e-300)
    y = xs / np.sqrt(r2)  # h^{-1}(x), as in `_h_inv`
    axes = [_axis_sets(n, f.degree) for f in forms]
    comps = [[f.component(a) for a in ax] for f, ax in zip(forms, axes)]
    sums = _kernel_sums(comps, [f.degree for f in forms], nodes, xs, y, cfg, h)
    out = []
    for f, ax, acc in zip(forms, axes, sums):
        if f.degree == 1:  # times Dh^{-1}(x)
            acc = (r2 * acc + xs * (acc * xs).sum(axis=0)) / r2**1.5
        elif f.degree == 2:
            acc = acc / r2**2
        grid = np.zeros((len(ax),) + mask.shape)
        grid[:, nodes] = acc
        out.append(GridForm(n, h, f.degree, dict(zip(ax, grid))))
    return out


def regularize(omega: GridForm, cfg: MollifierConfig) -> GridForm:
    """Kernel-averaged pullback R; exact identity at epsilon = 0 and on
    constant 0-forms."""
    return _regularize_all([omega], cfg, omega.mask())[0]


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


def _lerp(arr: np.ndarray, idx: np.ndarray, w: np.ndarray, axis: int) -> np.ndarray:
    """`arr` interpolated along `axis` on a 1-D stencil: the indices idx and
    weights w of each point's two nodes, both (2, N)."""
    w = w.reshape(w.shape + (1,) * (arr.ndim - 1 - axis))
    return np.take(arr, idx[0], axis=axis) * w[0] + np.take(arr, idx[1], axis=axis) * w[1]


def cone_S(omega: GridForm) -> GridForm:
    """Radial homotopy (S omega)(x) = int_0^1 t^(k-1) iota_x omega(t x) dt,
    by a 24-node Gauss-Legendre rule along each ray, with one 1-D stencil of
    the grid axis per Gauss node; GridForm zeroes the nodes off the ball."""
    n, k = omega.n, omega.degree
    if k < 1:
        raise BadDegree("cone operator needs degree >= 1")
    t, wt = simplex_rule(1, 47)  # the 24-point Gauss-Legendre rule on [0, 1]
    xs = omega.axis()
    comps = [omega.component(a) for a in _axis_sets(n, k)]
    rays = []
    for ti, wi in zip(t[:, 0], wt):
        i0, f = _cells(ti * xs[None], omega.h, len(xs))
        rays.append((ti, wi, np.vstack([i0, i0 + 1]), np.vstack([1.0 - f, f])))
    ray = np.zeros(comps[0].shape)
    for r in range(0, len(xs), _BAND):
        b = slice(r, r + _BAND)
        x = [xs[b, None], xs[None, :]] if n == 2 else [xs[b]]  # the nodes' coordinates
        for ti, wi, idx, w in rays:
            vals = [_lerp(c, idx[:, b], w[:, b], 0) for c in comps]  # rows, then columns
            vals = [_lerp(v, idx, w, 1) for v in vals] if n == 2 else vals
            if k == 1:
                for j in range(n):
                    ray[b] += wi * x[j] * vals[j]
            else:
                ray[b] += wi * ti * vals[0]
    # k == 2, n == 2: iota_x (f dx0^dx1) = f * (x0 dx1 - x1 dx0)
    out = {(): ray} if k == 1 else {(0,): -xs[None, :] * ray, (1,): xs[:, None] * ray}
    return GridForm(n, omega.h, k - 1, out)


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

    R is linear, so with A = (R - 1) S the identity's A d omega - (R - 1) omega
    is (R - 1) g for g = S d omega - omega (g = -omega at the top degree,
    where d omega = 0), and the residual is d A omega + (R - 1) g; for
    0-forms the d A term is absent.  One kernel loop regularizes S omega and
    g.  An interior region without a grid node raises ValueError: a residual
    over no node would pass vacuously.  `detail["checked"]` is the number of
    grid nodes in the region.  A config of another dimension than omega's
    raises BadDimension.
    """
    collar = cfg.epsilon + 2.0 * omega.h
    region = interior_region(omega, collar)
    if not region.any():
        raise ValueError(f"no grid node lies in |x| < 1 - {collar!r} (eps + 2h)")
    k = omega.degree
    # grid_d's central differences at the region read one node further along
    # each axis; the collar keeps the region off the grid edges np.roll wraps
    nodes = region.copy()
    for axis in range(omega.n):
        nodes |= np.roll(region, 1, axis) | np.roll(region, -1, axis)
    g = cone_S(grid_d(omega)) - omega if k < omega.n else omega.scale(-1.0)
    s = [cone_S(omega)] if k > 0 else []
    *r_s, r_g = _regularize_all(s + [g], cfg, nodes)
    diff = r_g - g
    if s:  # plus d A omega
        diff = grid_d(r_s[0] - s[0]) + diff
    residual = diff.max_norm(region)
    return MollifyReport(
        residual=residual, tol=tol, passed=residual <= tol,
        detail={"collar": collar, "epsilon": cfg.epsilon, "h": omega.h,
                "checked": int(region.sum())},
    )


def displacement_bound(omega: GridForm, cfg: MollifierConfig) -> float:
    """Max displacement |s_{eps v}(x) - x| over the ball's grid nodes x and
    the kernel nodes v.

    Only the nodes that can attain it are evaluated.  With U = eps max |v|
    and y = h^{-1}(x), ||Dh(z)|| = (1 + |z|^2)^{-1/2} bounds the displacement
    by U / sqrt(1 + (|y| - U)_+^2), which falls as |y| grows.  One exact seed
    pair, the longest shift u at the node nearest h(-u/2), where s_u moves
    points furthest, gives a displacement d0, and a node whose bound is below
    d0 (by a margin for rounding) cannot attain the max."""
    _check_dimension(omega, cfg)
    xs = _active_nodes(omega)[1]
    if cfg.epsilon == 0.0 or not xs.size:
        return 0.0
    y = _h_inv(xs.T).T
    shifts = cfg.epsilon * _kernel(cfg.kernel_grid, omega.n)[0]
    lengths = np.linalg.norm(shifts, axis=1)
    u, U = shifts[lengths.argmax()], lengths.max()
    seed = [np.linalg.norm(xs - _h_map(-u / 2)[:, None], axis=0).argmin()]
    d0 = np.linalg.norm(_shift(y[:, seed], xs[:, seed], u)[0] - xs[:, seed])
    bound2 = U**2 / (1.0 + np.maximum(np.linalg.norm(y, axis=0) - U, 0.0) ** 2)
    near = bound2 * (1.0 + 1e-9) >= d0**2
    xs, y = xs[:, near], y[:, near]
    return max(float(np.linalg.norm(_shift(y, xs, v)[0] - xs, axis=0).max()) for v in shifts)


def verify_support_control(
    omega: GridForm, cfg: MollifierConfig, r: float
) -> MollifyReport:
    """If omega vanishes on the centred disc of radius r, R omega vanishes
    (to SUPPORT_TOL) on the disc shrunk by the computed displacement bound
    delta(eps).  Raises ValueError when omega is nonzero at a node of |x| < r
    (the premise fails) or when no node lies in |x| < r - delta (a max over
    no node would pass vacuously).  `detail["checked"]` is the number of
    grid nodes in |x| < r - delta."""
    rad = omega.radius()
    if omega.max_norm(rad < r) != 0.0:
        raise ValueError(f"omega is nonzero at a grid node of |x| < {r!r}")
    delta = displacement_bound(omega, cfg)
    inner = rad < r - delta
    if not inner.any():
        raise ValueError(f"no grid node lies in |x| < r - delta = {r - delta!r}")
    worst = _regularize_all([omega], cfg, inner)[0].max_norm(inner)
    return MollifyReport(
        residual=worst, tol=SUPPORT_TOL, passed=worst <= SUPPORT_TOL,
        detail={"delta": delta, "r": r, "epsilon": cfg.epsilon,
                "checked": int(inner.sum())},
    )
