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
h^{-1}(x) once per band of nodes, accumulates w rs (c - p (c . p)) (or
w rs^4 c) over the kernel nodes, c the values interpolated at p, and applies
Dh^{-1}(x) once at the end of the band.

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
lookup, written into buffers of the band's size, so that a kernel node
allocates no array; the kernel nodes run over a tensor grid in row-major
order, so z_0 = y_0 + eps v_0 and z_0^2 are built once per grid coordinate
of axis 0.  Every component of every form averaged in that call is
interpolated through them: `regularize` passes one form, and
`verify_homotopy` passes S omega and g = S d omega - omega together.  R is
linear, so A d omega - (R - 1) omega = (R - 1) g, and one regularization of
g stands in for those of omega and S d omega: a 2-D 1-form check
interpolates 3 components per kernel node, one of S omega and two of g.
`displacement_bound` evaluates only the nodes that a bound on ||Dh|| does
not rule out.  The ray points t x of `cone_S` form a grid again, so per
Gauss node t and band of `_BAND` output rows it interpolates along the
columns, on only the input rows that the band's points read (about t of
them per output row), and then along the rows, with the rule's weight
folded into the row weights; x multiplies the sum over t once.  Each
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


@functools.lru_cache(maxsize=8)
def _grid_radius(n: int, h: float) -> np.ndarray:
    """|x| at the nodes of the (n, h) grid, built once per (n, h); read-only,
    since every GridForm on that grid shares it.  Fewer grids are kept than
    masks: a float array takes 8 times the bytes of a mask."""
    rad = np.linalg.norm(_grid_points(n, h), axis=-1)
    rad.setflags(write=False)
    return rad


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
        """|x| at every node; shared per (n, h), read-only."""
        return _grid_radius(self.n, self.h)

    def mask(self) -> np.ndarray:
        """The nodes in the open unit ball; shared per (n, h), read-only."""
        return _ball_mask(self.n, self.h)

    def component(self, axes: AxisSet) -> np.ndarray:
        shape = (len(self.axis()),) * self.n
        return self.components.get(tuple(axes), np.zeros(shape))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridForm):
            return NotImplemented
        return ((self.n, self.h, self.degree) == (other.n, other.h, other.degree)
                and self.components.keys() == other.components.keys()
                and all(np.array_equal(arr, other.components[a])
                        for a, arr in self.components.items()))

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

def _cells(pts: np.ndarray, h: float, npts: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The cells of points pts (n, N) in [-1,1]^n on a grid of npts nodes per
    axis: per axis, the index i0 of the cell's first node and the fraction f
    of the way to the next, both (n, N), written to the pair of arrays `out`
    if given; a point on the top edge is clipped into the last cell, at f
    just below 1."""
    i0, f = out if out is not None else (np.empty(pts.shape, np.intp), np.empty(pts.shape))
    np.add(pts, 1.0, out=f)
    f /= h
    np.minimum(f, npts - 1.000001, out=f)
    np.copyto(i0, f, casting="unsafe")  # floor, as f >= 0
    f -= i0
    return i0, f


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


def _interp(tab: np.ndarray, cell: np.ndarray, f: np.ndarray, out) -> np.ndarray:
    """Values of a `_table` at points in its cells `cell` with fractions f,
    written to out[0]: `out` holds three buffers for N = len(cell) points,
    (N,), (N,) and (N, 2^n), for the values, scratch and the gathered rows."""
    v, tmp, t = out
    tab.take(cell, axis=0, out=t, mode="clip")  # every cell lies in the table
    np.multiply(t[:, 1], f[0], out=v)  # a + b f0
    v += t[:, 0]
    if len(f) == 2:  # + f1 (c + d f0)
        np.multiply(t[:, 3], f[0], out=tmp)
        tmp += t[:, 2]
        tmp *= f[1]
        v += tmp
    return v


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


# Grid nodes per band of the kernel loop: its bands are the most whole rows
# (axis 0) that hold no more, and at least one row; 26 rows, with 1.3 MB of
# tables and 1.1 MB of buffers, in the 2-D check at h = 1/128.  Bands of
# 6,144 and 8,192 nodes ran that check as fast (137 ms, against 148 ms at
# 4,096; 2-vCPU Xeon), and the kernel loop's tracemalloc peak is 6.5 MB at
# 6,144 against 7.3 MB at 8,192.
_BAND_NODES = 6144

# Grid rows per band of `cone_S`.  A 1-form cone at h = 1/128 ran in 15 ms
# at 64 and 128 rows, 17 ms at 32 and 16 ms in one band (2-vCPU Xeon).
_BAND = 64


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------

def _kernel_sums(comps: list[list[np.ndarray]], degrees: list[int], nodes: np.ndarray,
                 cfg: MollifierConfig, h: float) -> list[np.ndarray]:
    """R of each form, given by its grid components `comps` and its degree,
    at the nodes x of the boolean grid `nodes`, in row-major order, one row
    per component: the sum over the kernel nodes v of w_v times the values
    at s_{eps v}(x), times Dh(z) for 1-forms and det Dh(z) for 2-forms, then
    times Dh^{-1}(x) or its determinant, band by band."""
    n, npts = nodes.ndim, nodes.shape[0]
    N = int(np.count_nonzero(nodes))
    sums = [np.zeros((len(cs), N)) for cs in comps]
    if not N:
        return sums
    axis = grid_axis(h)
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
    firsts = range(filled[0], filled[-1] + 1, band)
    # buffers for the largest band, which every band and kernel node writes into
    size = int(max(start[min(r + band, npts)] - start[r] for r in firsts))
    points = np.empty((3, n, size))
    scalars = np.empty((5, size))
    values = np.empty((2, max(len(cs) for cs in comps), size))
    indices = np.empty((n + 1, size), np.intp)
    gathered = np.empty((size, 2**n))
    moves = shifts.any(axis=1).tolist()
    lo = hi = -1
    for r in firsts:
        b = slice(start[r], start[min(r + band, npts)])
        if max(r - reach, 0) < lo or min(r + band + reach, npts - 1) > hi:
            tabs = None  # freed before the next ones are built
            lo, hi = max(r - reach, 0), min(r + span + reach, npts - 1)
            tabs = [[_table(c, lo, hi) for c in cs] for cs in comps]
        at = np.array(np.nonzero(nodes[r:r + band]))  # the band's nodes
        at[0] += r
        x = axis[at]
        r2 = np.maximum(1.0 - (x**2).sum(axis=0), 1e-300)  # as in `_h_inv`
        m = len(r2)
        y, p, f = points[..., :m]
        z0, z02, s, rs, wr = scalars[:, :m]
        vals, tmp = values[..., :m]
        i0, cell = indices[:n, :m], indices[n, :m]
        np.divide(x, np.sqrt(r2), out=y)  # h^{-1}(x)
        e0 = None
        for ev, w, moved in zip(shifts, ws, moves):
            # z = y + ev and s = (1 + |z|^2)^{1/2}, as in `_shift`; the kernel
            # nodes run over a tensor grid in row-major order, so z_0 and
            # z_0^2 change only with its axis-0 coordinate; z_1 is kept in p
            if ev[0] != e0:
                e0 = ev[0]
                np.add(y[0], e0, out=z0)
                np.multiply(z0, z0, out=z02)
            if n == 2:
                np.add(y[1], ev[1], out=p[1])
                np.multiply(p[1], p[1], out=s)
                s += z02
                s += 1.0
            else:
                np.add(z02, 1.0, out=s)
            np.sqrt(s, out=s)
            np.divide(1.0, s, out=rs)
            if moved:  # s_ev(x) = h(z)
                np.divide(z0, s, out=p[0])
                p[1:] /= s
            ps = p if moved else x
            _cells(ps, h, npts, (i0, f))
            np.subtract(i0[0], lo, out=cell)
            if n == 2:
                cell *= npts - 1
                cell += i0[1]
            for k, ts, acc in zip(degrees, tabs, sums):
                v, t = vals[:len(ts)], tmp[:len(ts)]
                for tab, vj, tj in zip(ts, v, t):
                    _interp(tab, cell, f, (vj, tj, gathered[:m]))
                if k == 0:
                    np.multiply(v, w, out=t)
                elif k == 1:  # the row vector v^T Dh(z) = rs (v - ps (v . ps))
                    np.multiply(v, ps, out=t)
                    if n == 2:
                        np.add(t[0], t[1], out=wr)
                    else:
                        wr[:] = t[0]
                    np.multiply(ps, wr, out=t)
                    np.subtract(v, t, out=t)
                    np.multiply(rs, w, out=wr)
                    t *= wr
                else:  # det Dh(z) = rs^4
                    np.power(rs, 4, out=wr)
                    wr *= w
                    np.multiply(v, wr, out=t)
                acc[:, b] += t
        for k, acc in zip(degrees, sums):  # times Dh^{-1}(x) = (r2 I + x x^T) / r2^{3/2}
            if k == 1:
                acc[:, b] = (r2 * acc[:, b] + x * (acc[:, b] * x).sum(axis=0)) / r2**1.5
            elif k == 2:
                acc[:, b] /= r2**2
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
    mask = forms[0].mask()
    nodes = nodes & mask  # R is 0 outside the ball
    axes = [_axis_sets(n, f.degree) for f in forms]
    comps = [[f.component(a) for a in ax] for f, ax in zip(forms, axes)]
    sums = _kernel_sums(comps, [f.degree for f in forms], nodes, cfg, h)
    out = []
    for f, ax, acc in zip(forms, axes, sums):
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


def cone_S(omega: GridForm) -> GridForm:
    """Radial homotopy (S omega)(x) = int_0^1 t^(k-1) iota_x omega(t x) dt,
    by a 24-node Gauss-Legendre rule along each ray; GridForm zeroes the
    nodes off the ball.

    The ray points t x of the grid nodes form a grid again, so per Gauss node
    t and band of `_BAND` output rows, each component is interpolated one
    axis at a time: along the columns, on only the input rows that the band's
    points read (about t of them per output row), then along the rows, with
    the rule's weight w_t t^(k-1) folded into the row weights.  The sum over
    t is kept per component, and x enters once, after it."""
    n, k = omega.n, omega.degree
    if k < 1:
        raise BadDegree("cone operator needs degree >= 1")
    t, wt = simplex_rule(1, 47)  # the 24-point Gauss-Legendre rule on [0, 1]
    xs = omega.axis()
    comps = [omega.component(a) for a in _axis_sets(n, k)]
    sums = [np.zeros(c.shape) for c in comps]
    for ti, wi in zip(t[:, 0], wt):
        i0, f = (a[0] for a in _cells(ti * xs[None], omega.h, len(xs)))
        wk = wi * ti if k == 2 else wi  # w_t t^(k-1)
        w0, w1 = wk * (1.0 - f), wk * f
        if n == 2:
            w0, w1 = w0[:, None], w1[:, None]
        for r in range(0, len(xs), _BAND):
            b = slice(r, r + _BAND)
            lo, hi = i0[b][0], i0[b][-1] + 2  # i0 rises with the row: the rows t x reads
            for c, acc in zip(comps, sums):
                if n == 2:  # columns first
                    col = c[lo:hi].take(i0, axis=1)
                    col *= 1.0 - f
                    right = c[lo:hi].take(i0 + 1, axis=1)
                    right *= f
                    col += right
                else:
                    col = c[lo:hi]
                g0 = col.take(i0[b] - lo, axis=0)
                g0 *= w0[b]
                g1 = col.take(i0[b] + 1 - lo, axis=0)
                g1 *= w1[b]
                g0 += g1
                acc[b] += g0
    ray = sums[0]
    if k == 1:  # iota_x omega = sum_j x_j omega_j
        x = [xs[:, None], xs[None, :]] if n == 2 else [xs]
        ray *= x[0]
        for xj, acc in zip(x[1:], sums[1:]):
            acc *= xj
            ray += acc
        return GridForm(n, omega.h, 0, {(): ray})
    # k == 2, n == 2: iota_x (f dx0^dx1) = f * (x0 dx1 - x1 dx0)
    return GridForm(n, omega.h, 1, {(0,): -xs[None, :] * ray, (1,): xs[:, None] * ray})


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
    del r_g, g  # freed before d A omega is built
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
    xs = omega.axis()[np.array(np.nonzero(omega.mask()))]  # the ball's nodes, (n, N)
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
