"""Piecewise polynomial differential forms in barycentric coordinates.

A form of degree k is stored per maximal simplex of its carrier complex.
On a simplex T = (v_0 < ... < v_m) the coordinates are the reduced
barycentric variables t_1..t_m (t_0 = 1 - sum t_i is eliminated, and
dt_0 = -sum dt_i), so every piece has a unique canonical expansion

    sum_j  c_j * t^(a_j) * dt_{I_j},   I_j an ascending k-subset of {1..m}.

Terms are held as a dict mapping (exponents, diff-indices) to the
coefficient; zero coefficients are dropped.

Every change of simplex is one pullback along an affine map, given by a
matrix B whose row i writes source variable i as a combination of the
target simplex's full barycentric coordinates (one column per target
vertex).  A face trace selects columns (B[r][j] = 1 where T[r] == sigma[j]),
the full-to-reduced rewrite uses the identity, a Whitney form pulls back a
reference form along sigma's vertices, and the prism collapse sums the
columns over each base vertex.

Integration follows the volume-weighted barycentric monomial formula

    int_T t_1^{a_1} ... t_m^{a_m} dV = vol(T) * m! * prod(a_i!) / (m + sum a_i)!

so that the integral of dt_1 ^ ... ^ dt_k over a k-simplex equals its
Riemannian k-volume.  The metric-free (affine-invariant) integral, which
satisfies Stokes' theorem exactly against the alternating-sum coboundary,
is available with weighted=False; it differs by the factor k! * vol.

A form keeps the layout of its pieces per dimension, `PolyForm._layout`:
their rows in key order, the union of their term keys and their dense
coefficients over it, built on first read through `_dense` or handed over
by `derham.whitney`, whose forms build `pieces` from it on first read, so
`pieces` must not be changed after construction.
Pointwise values have one path, `_coefficients`, which turns a layout into
an exponent matrix E (keys x m) and a coefficient tensor A (pieces x keys x
dt_I columns); then V = prod(pts ** E) @ A, and |omega|^2 = V G V^T with G
the covector Gram matrices.  `lp_norm` takes each dimension in one pass.

LRU caches keyed by reference data, never by a complex, serve the hot
paths: `_unit_pullback` (one term key pulled back along B, almost always a
0/1 matrix), `_unit_d` (one term key's d), `_face_table` (one term's
integrals over the faces of its reference simplex in closed form, with no
pullback, so a piece's face integrals are one product) and, in `derham`,
the Whitney form of each face position.  The complex keeps the volumes and
covector Gram matrices of each dimension once computed.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .complexes import MetricComplex, PiSequence, SimplexKey, build_complex
from .errors import BadCarrier, BadDimension, BadExponent, MissingSimplex

# the rule degrees lp_norm tries in turn for a p that is not an even integer
_ADAPTIVE_DEGREES = (8, 14, 20, 28, 38)
# pieces x points lp_norm evaluates at once, which bounds the memory of a high rule
_BLOCK = 1 << 15

# a term key: (exponent tuple over t_1..t_m, ascending diff index tuple)
TermKey = tuple[tuple[int, ...], tuple[int, ...]]
Terms = dict[TermKey, float]


# ---------------------------------------------------------------------------
# canonical term algebra
# ---------------------------------------------------------------------------

def t_clean(terms: Terms) -> Terms:
    return {k: v for k, v in terms.items() if v != 0.0}

def t_add(a: Terms, b: Terms, bs: float = 1.0) -> Terms:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + bs * v
    return t_clean(out)

def t_scale(a: Terms, s: float) -> Terms:
    return t_clean({k: s * v for k, v in a.items()})

def _permutation_sign(tau: tuple[int, ...]) -> int:
    """Sign of the permutation that sorts tau, by counting inversions."""
    sign = 1
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            if tau[i] > tau[j]:
                sign = -sign
    return sign

def _wedge_indices(i: tuple[int, ...], j: tuple[int, ...]):
    """Merge two ascending index tuples; return (sorted tuple, sign) or None."""
    if set(i) & set(j):
        return None
    return tuple(sorted(i + j)), _permutation_sign(i + j)

def t_wedge(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for (ea, ia), ca in a.items():
        for (eb, ib), cb in b.items():
            w = _wedge_indices(ia, ib)
            if w is None:
                continue
            idx, sign = w
            exps = tuple(x + y for x, y in zip(ea, eb))
            key = (exps, idx)
            out[key] = out.get(key, 0.0) + sign * ca * cb
    return t_clean(out)

def t_d(a: Terms, m: int) -> Terms:
    out: Terms = {}
    for key, c in a.items():
        for image, v in _unit_d(key, m):
            out[image] = out.get(image, 0.0) + c * v
    return t_clean(out)

@functools.lru_cache(maxsize=1 << 14)
def _unit_d(key: TermKey, m: int):
    """d of one term with coefficient 1, as a tuple of items like `_unit_pullback`'s."""
    exps, idx = key
    return tuple(((tuple(x - (q == j - 1) for q, x in enumerate(exps)), tuple(sorted(idx + (j,)))),
                  float((-1) ** sum(i < j for i in idx) * exps[j - 1]))
                 for j in range(1, m + 1) if exps[j - 1] and j not in idx)

def selection(src: SimplexKey, dst: SimplexKey) -> tuple[tuple[float, ...], ...]:
    """Pullback matrix with B[i][j] = 1 where src[i] == dst[j], else 0."""
    return tuple(tuple(float(a == b) for b in dst) for a in src)


def pullback(terms: Terms, B: Sequence[Sequence[float]]) -> Terms:
    """Pull terms back along an affine map between simplices.

    Row i of B is source variable i as a combination of the target's full
    barycentric coordinates; the result is in the target's reduced ones.
    Terms over full source variables carry len(B) exponents, reduced terms
    one fewer (row 0 is skipped); diff index i always means row i.
    """
    B = tuple(map(tuple, B))
    out: Terms = {}
    for key, c in terms.items():
        for image, v in _unit_pullback(key, B):
            out[image] = out.get(image, 0.0) + c * v
    return t_clean(out)


@functools.lru_cache(maxsize=1 << 14)
def _unit_pullback(key: TermKey, B: tuple[tuple[float, ...], ...]):
    """The pullback of one term with coefficient 1, as a tuple of items, so
    that callers cannot change what the cache holds."""
    exps, idx = key
    m = len(B[0]) - 1
    zero = (0,) * m
    # the target's t_0 = 1 - sum t_j and dt_0 = -sum dt_j, so column 0 is
    # subtracted; this is the only place the term algebra eliminates t_0
    lin = [[x - row[0] for x in row[1:]] for row in B]
    acc: Terms = {(zero, ()): 1.0}
    for i in idx:
        acc = t_wedge(acc, {(zero, (j,)): c for j, c in enumerate(lin[i], start=1) if c})
    for i, e in enumerate(exps, start=len(B) - len(exps)):
        poly = {(tuple(int(q == j) for q in range(m)), ()): c
                for j, c in enumerate(lin[i]) if c}
        if B[i][0]:
            poly[(zero, ())] = B[i][0]
        for _ in range(e):
            acc = t_wedge(acc, poly)
    return tuple(acc.items())


def _by_dimension(keys) -> list[list[SimplexKey]]:
    return [list(g) for _, g in itertools.groupby(sorted(keys, key=len), key=len)]


def _dense(pieces: Sequence[Terms]) -> tuple[Terms, np.ndarray]:
    """The union of the pieces' term keys and their coefficients over it."""
    union: Terms = {}
    for terms in pieces:
        union.update(terms)
    union = dict.fromkeys(union, 0.0)  # a piece merged into it lists values in union order
    values = itertools.chain.from_iterable([{**union, **terms}.values() for terms in pieces])
    dense = np.fromiter(values, float, count=len(pieces) * len(union))
    return union, dense.reshape(len(pieces), len(union))


def _coefficients(union, dense: np.ndarray, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """E and A of the module docstring for term keys union and the pieces'
    coefficients dense over them; column j of A is the j-th ascending
    k-subset I of 1..m in `itertools.combinations` order."""
    col = _columns(m, k)
    A = np.zeros((len(dense), len(union), len(col)))
    A[:, np.arange(len(union)), [col[I] for _, I in union]] = dense
    return np.array([e for e, _ in union], dtype=int).reshape(len(union), m), A


def _components_at(terms: Terms, pts: np.ndarray, k: int) -> np.ndarray:
    """The dt_I components of degree-k terms at the rows of pts, one column per I."""
    E, A = _coefficients(*_dense([terms]), pts.shape[1], k)
    return np.prod(pts[:, None, :] ** E, axis=2) @ A[0]


def _norm_sq(V: np.ndarray, G: np.ndarray) -> np.ndarray:
    """|omega|^2 = V G V^T per point of components V with Gram matrices G."""
    return np.maximum(np.einsum("...j,...j->...", V @ G, V), 0.0)


def _columns(m: int, k: int) -> dict[tuple[int, ...], int]:
    return {I: j for j, I in enumerate(itertools.combinations(range(1, m + 1), k))}


@functools.lru_cache(maxsize=1 << 12)
def _face_table(key: TermKey) -> tuple[float, ...]:
    """Integral of one unit term t^a dt_I over each k-face F = (f_0 < ... < f_k)
    of the reference m-simplex (k = len(I), m = len(a)), faces in combinations
    order, each relative to the face's normalized measure.  The trace on F is
    0 unless F holds I and the support of a; then F minus I is one vertex
    f_q, dt_I = (-1)^q ds_1 ^ ... ^ ds_k, and t^a is a monomial in F's full
    barycentric coordinates, so the entry is (-1)^q * k! * prod b! / (k + sum b)!
    with b_j = a_{f_j} (a_0 = 0), the formula of `monomial_integral`."""
    exps, idx = key
    full, k = (0, *exps), len(idx)
    out = []
    for f in itertools.combinations(range(len(full)), k + 1):
        b = tuple(full[v] for v in f)
        rest = [q for q, v in enumerate(f) if v not in idx]
        on_face = len(rest) == 1 and sum(b) == sum(exps)
        out.append((-1) ** rest[0] * monomial_integral(b, k) if on_face else 0.0)
    return tuple(out)


def _integrals(union: Terms, dense: np.ndarray) -> np.ndarray:
    """k! times the metric-free integrals of the pieces `_dense` gives over
    their k-faces, one column per face in combinations order."""
    return dense @ np.array([_face_table(key) for key in union])


# ---------------------------------------------------------------------------
# quadrature on simplices
# ---------------------------------------------------------------------------

def _gauss_jacobi(q: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss rule on [-1, 1] for the weight (1 - x)^a (Golub-Welsch
    1969): the nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix, the weights 2^(a+1)/(a+1) times the squared first components of
    its unit eigenvectors."""
    n = np.arange(q, dtype=float)
    s = 2.0 * n + a
    diag = -(a * a) / np.where(s == 0.0, 1.0, s * (s + 2.0))  # 0 at n = 0 if a = 0
    k, s = n[1:], s[1:]
    off = np.sqrt(4.0 * k**2 * (k + a) ** 2 / (s**2 * (s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))  # eigh reads the lower triangle
    return x, 2.0 ** (a + 1) / (a + 1) * v[0] ** 2


@functools.lru_cache(maxsize=None)
def simplex_rule(m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical-product rule on the reference m-simplex, exact for total
    degree <= degree: a tensor product of Golub-Welsch Gauss-Jacobi rules
    collapsed onto the simplex.  Returns (points in reduced coords (npts, m),
    weights summing to 1); the integral of f dV is vol * sum w_i f(x_i).
    Both arrays are cached and read-only, since every caller shares them.

    This is the library's one Gauss rule: at m = 1, simplex_rule(1, 2q - 1)
    is the q-point Gauss-Legendre rule on [0, 1], which the ray integrals of
    `mollify.cone_S` use."""
    q = max(1, (degree + 2) // 2)
    if m == 0:
        pts, wts = np.zeros((1, 0)), np.ones(1)
    else:
        # Gauss-Jacobi rule on [0, 1] with weight (1 - x)^(m - j) on axis j
        axes = [_gauss_jacobi(q, m - j) for j in range(1, m + 1)]
        xs = np.meshgrid(*[(x + 1.0) / 2.0 for x, _ in axes], indexing="ij")
        ws = np.meshgrid(*[w / 2.0 ** (m - j + 1) for j, (_, w) in enumerate(axes, 1)],
                         indexing="ij")
        pts, wts, rem = np.empty((q**m, m)), np.ones(q**m), np.ones(q**m)
        for j in range(m):  # u_j = x_j * prod_{l < j} (1 - x_l)
            x = xs[j].ravel()
            pts[:, j] = rem * x
            wts *= ws[j].ravel()
            rem *= 1.0 - x
        wts = wts / wts.sum()  # normalize: weights vs. volume measure
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def monomial_integral(exps: tuple[int, ...], m: int) -> float:
    """int over the reference m-simplex of t_1^a1 ... t_m^am relative to the
    normalized volume measure (total mass 1): m! * prod a_i! / (m + sum a)!
    It holds too for exponents over all m + 1 barycentrics (Eisenberg-Malvern 1973)."""
    s = sum(exps)
    val = math.factorial(m) / math.factorial(m + s)
    for a in exps:
        val *= math.factorial(a)
    return val


# ---------------------------------------------------------------------------
# the piecewise form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyForm:
    """Degree-k piecewise polynomial form on the maximal simplices of K."""

    degree: int
    complex: MetricComplex
    pieces: dict[SimplexKey, Terms]
    _memo: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if missing := [T for T in self.pieces if not self.complex.has_simplex(T)]:
            raise MissingSimplex(f"piece on {missing[0]}, which is not a simplex of the complex")
        clean = {T: t_clean(p) for T, p in self.pieces.items()}
        object.__setattr__(self, "pieces", {T: p for T, p in clean.items() if p})

    @classmethod
    def _from_layout(cls, k: int, K: MetricComplex, layout: tuple) -> "PolyForm":
        """The form with this `_layout`, whose rows are K's own and none of
        whose pieces is 0, so nothing is checked; `pieces` is built on first read."""
        form = object.__new__(cls)
        form.__dict__.update(degree=k, complex=K, _memo=layout)
        return form

    def __getattr__(self, name: str):
        """The pieces of a `_from_layout` form, built from its layout on first read."""
        if name != "pieces":
            raise AttributeError(name)
        self.__dict__["pieces"] = {
            self.complex.simplices_of_dim(m)[r]: {key: v for key, v in zip(union, coeffs) if v}
            for m, rows, union, dense in self._memo
            for r, coeffs in zip(rows.tolist(), dense.tolist())}
        return self.pieces

    def _layout(self) -> tuple:
        """Per dimension m of the pieces, ascending: m, their rows among the
        m-simplices, ascending, and `_dense` of their pieces in that order,
        the union as a tuple.  Built on first read; read-only."""
        if self._memo is None:
            layout = []
            for group in _by_dimension(self.pieces):
                rows = np.sort(self.complex._rows(m := len(group[0]) - 1, group))
                union, dense = _dense([*map(self.pieces.__getitem__, map(
                    self.complex.simplices_of_dim(m).__getitem__, rows.tolist()))])
                for a in (rows, dense):
                    a.setflags(write=False)
                layout.append((m, rows, tuple(union), dense))
            object.__setattr__(self, "_memo", tuple(layout))
        return self._memo

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(K: MetricComplex, k: int) -> "PolyForm":
        return PolyForm(k, K, {})

    @staticmethod
    def constant(K: MetricComplex, value: float) -> "PolyForm":
        pieces = {
            T: {((0,) * (len(T) - 1), ()): value} for T in K.maximal_simplices()
        }
        return PolyForm(0, K, pieces)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if other.degree != self.degree:
            raise BadDimension("degree mismatch in form sum")
        if other.complex != self.complex:
            raise BadCarrier("carrier mismatch in form sum")
        pieces = dict(self.pieces)
        for T, p in other.pieces.items():
            pieces[T] = t_add(pieces.get(T, {}), p)
        return PolyForm(self.degree, self.complex, pieces)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + other.scale(-1.0)

    def scale(self, s: float) -> "PolyForm":
        return PolyForm(
            self.degree, self.complex, {T: t_scale(p, s) for T, p in self.pieces.items()}
        )

    def __rmul__(self, s: float) -> "PolyForm":
        return self.scale(s)

    def piece(self, T: SimplexKey) -> Terms:
        return self.pieces.get(T, {})

    # -- calculus -----------------------------------------------------------

    def d(self) -> "PolyForm":
        pieces = {T: t_d(p, len(T) - 1) for T, p in self.pieces.items()}
        return PolyForm(self.degree + 1, self.complex, pieces)

    def wedge(self, other: "PolyForm") -> "PolyForm":
        K = self.complex
        k = self.degree + other.degree
        if any(k > len(T) - 1 for T in set(self.pieces) | set(other.pieces)):
            raise BadDimension("wedge degree exceeds carrier dimension")
        common = set(self.pieces) & set(other.pieces)
        return PolyForm(k, K, {T: t_wedge(self.pieces[T], other.pieces[T]) for T in common})

    def trace_on(self, sigma: SimplexKey) -> Terms:
        """Tangential trace onto a simplex, in sigma's reduced coordinates.

        The piece is the first carrier of sigma that has one; the continuity
        invariant makes the choice immaterial.  Without one the trace is {}.
        """
        sigma = tuple(sigma)
        T = next((T for T in self.complex.carriers.get(sigma, ()) if T in self.pieces), None)
        if T is None:
            return {}
        return self.pieces[T] if T == sigma else pullback(self.pieces[T], selection(T, sigma))

    def evaluate(self, T: SimplexKey, t: np.ndarray) -> dict[tuple[int, ...], float]:
        """Components at reduced barycentric coordinates t on piece T."""
        terms = self.pieces.get(T, {})
        if not terms:
            return {}
        m = len(T) - 1
        V = _components_at(terms, np.asarray(t, dtype=float).reshape(1, m), self.degree)[0]
        col = _columns(m, self.degree)
        return {I: float(V[col[I]]) for I in dict.fromkeys(I for _, I in terms)}

    # -- integration --------------------------------------------------------

    def integrate(self, tau: tuple[int, ...], weighted: bool = True) -> float:
        """Integral over the oriented simplex tau (dim tau = degree).

        The orientation is that of ascending vertex order; an odd
        permutation of tau flips the sign.  weighted=True applies the
        volume-weighted monomial formula; weighted=False is the metric-free
        form integral (Stokes-exact).  The piece is the one `trace_on` picks.
        """
        tau = tuple(tau)
        k = self.degree
        if len(tau) - 1 != k:
            raise BadDimension(f"cannot integrate a {k}-form over {tau}")
        key = tuple(sorted(tau))
        for T in self.complex.carriers.get(key, ()):
            if T in self.pieces:
                face = [*itertools.combinations(T, k + 1)].index(key)
                plain = float(_integrals(*_dense([self.pieces[T]]))[0, face])
                value = plain * self.complex.volume(key) if weighted else plain / math.factorial(k)
                return _permutation_sign(tau) * value
        return 0.0

    # -- norms --------------------------------------------------------------

    def lp_norm(self, p: float) -> float:
        """||omega||_{Omega_p}: per-simplex integral of |omega|^p, p-th root.

        Exact (up to the rule's polynomial exactness) for even integer p;
        otherwise each piece raises its quadrature order until two
        consecutive conical rules agree to 1e-10 relative.  The coefficients
        are divided by a power of two near a bound of |omega|, multiplied back
        after the root, so that |omega|^p stays in range.
        """
        if not (math.isfinite(p) and p >= 1):
            raise BadExponent(f"p = {p} is not a finite number >= 1")
        k, K = self.degree, self.complex
        layouts = [(vol[rows], *_coefficients(union, dense, m, k), G[rows])
                   for m, rows, union, dense in self._layout() if m >= k
                   for vol, G in [K._geometry_at(m, rows, k)]]
        if not layouts:
            return 0.0
        e = math.frexp(max(float((np.abs(A).max(axis=(1, 2)) * np.sqrt(G.max(axis=(1, 2)))).max())
                           for _, _, A, G in layouts))[1]
        degrees = _ADAPTIVE_DEGREES
        if float(p).is_integer() and int(p) % 2 == 0:
            # |omega|^p = (V G V^T)^(p/2) has degree p * d for components of degree d
            degrees = (int(p) * max(int(E.sum(axis=1).max()) for _, E, _, _ in layouts),)
        # the 1 of the convergence test 1e-10 (1 + |acc|), in scaled units
        floor = math.exp(min(-e * p * math.log(2.0), 700.0))
        total = 0.0
        for vol, E, A, G in layouts:
            A *= math.ldexp(1.0, -e)
            acc, live = np.full(len(vol), np.nan), np.arange(len(vol))
            for deg in degrees:
                cur = _power_sums(A[live], G[live], E, *simplex_rule(E.shape[1], deg), p)
                # a piece goes on until its last two rules agree (NaN never does)
                keep = ~(np.abs(cur - acc[live]) <= 1e-10 * (floor + np.abs(cur)))
                acc[live], live = cur, live[keep]
                if not live.size:
                    break
            total += float(vol @ acc)
        return total ** (1.0 / p) * math.ldexp(1.0, e)

    def sup_norm(self, T: SimplexKey, resolution: int = 8) -> float:
        """Lattice lower bound of ess-sup |omega| on T."""
        T = tuple(T)
        terms = self.pieces.get(T) or self.trace_on(T)
        if not terms:
            return 0.0
        V = _components_at(terms, _lattice(len(T) - 1, resolution), self.degree)
        return math.sqrt(float(_norm_sq(V, self.complex.covector_gram(T, self.degree)).max()))

    def omega_pi_norm(self, pi: PiSequence) -> float:
        k = self.degree
        total = self.lp_norm(pi[k])
        if k < self.complex.dim:
            total += self.d().lp_norm(pi[k + 1])
        return total

    def continuity_defect(self) -> float:
        """Max mismatch of the traces of adjacent pieces, on the lattice of
        spacing 1/4 of every face shared by two or more maximal simplices.  A
        maximal simplex without a piece contributes the zero trace."""
        worst = 0.0
        for sigma, tops in self.complex.carriers.items():
            l = len(sigma) - 1
            if len(tops) < 2 or l < self.degree or not any(T in self.pieces for T in tops):
                continue
            pts = _lattice(l, 4)
            vals = np.array([
                _components_at(pullback(self.piece(T), selection(T, sigma)), pts, self.degree)
                for T in tops
            ])
            worst = max(worst, float((vals.max(axis=0) - vals.min(axis=0)).max()))
        return worst


def _power_sums(A: np.ndarray, G: np.ndarray, E: np.ndarray, pts: np.ndarray, wts: np.ndarray,
                p: float) -> np.ndarray:
    """Per piece of A and G, the sum of |omega|^p over the rule (pts, wts)."""
    P = np.prod(pts[:, None, :] ** E, axis=2)
    step = max(1, _BLOCK // len(pts))
    return np.concatenate([_norm_sq(P @ A[i:i + step], G[i:i + step]) ** (p / 2.0) @ wts
                           for i in range(0, len(A), step)])


def _lattice(m: int, r: int) -> np.ndarray:
    """Reduced barycentric lattice points with coordinates i/r, one per row."""
    combos = [c for c in itertools.product(range(r + 1), repeat=m) if sum(c) <= r]
    return np.array(combos, dtype=float).reshape(len(combos), m) / r


# ---------------------------------------------------------------------------
# prism extension
# ---------------------------------------------------------------------------

def _check_cube_boundary(K: MetricComplex, n: int) -> None:
    for xs in K.vertices.values():
        if len(xs) != n or any(x not in (0.0, 1.0) for x in xs):
            raise BadCarrier("carrier is not a unit cube boundary")
    if K.dim != n - 1:
        raise BadCarrier("carrier has the wrong dimension for a cube boundary")


def _prism_complex(K: MetricComplex) -> MetricComplex:
    """Triangulated prism (cube boundary) x [0,1], built once per K into its
    memo.  Prism vertex 2r + l is base vertex rank r at level l, and each base
    simplex (a_0 < ... < a_k) gives the staircase (a_0^0 ... a_q^0, a_q^1 ...
    a_k^1), q = 0..k; a face's staircase lies in those of its cofaces."""
    if "prism" not in K._memo:
        coords = map(K.vertices.__getitem__, sorted(K.vertices))
        vertices = {2 * r + l: xs + (float(l),) for r, xs in enumerate(coords) for l in (0, 1)}
        K._memo["prism"] = build_complex(vertices, [
            row for k, a in enumerate(K._tables[0]) for q in range(k + 1)
            for row in np.column_stack([2 * a[:, :q + 1], 2 * a[:, q:] + 1]).tolist()])
    return K._memo["prism"]


def prism_extend(omega: PolyForm, n: int) -> PolyForm:
    """Extend a form on the cube boundary to (1-t) * omega on the prism.

    The restriction at t=0 recovers omega; at t=1 the extension vanishes.
    """
    if n not in (1, 2):
        raise BadDimension("prism extension supports n in {1, 2}")
    K = omega.complex
    _check_cube_boundary(K, n)
    P, ids = _prism_complex(K), sorted(K.vertices)
    pieces: dict[SimplexKey, Terms] = {}
    for T in P.maximal_simplices():
        base, level = zip(*((ids[v // 2], v % 2) for v in T))
        basecell = tuple(sorted(set(base)))
        tr = omega.trace_on(basecell)
        if not tr:
            continue
        # base vertex j pulls back to the sum of the prism vertices over it;
        # 1 - t is the sum of the level-0 barycentrics
        ext = pullback(tr, selection(basecell, base))
        one_minus_t = pullback({((1,), ()): 1.0}, selection((0,), level))
        pieces[T] = t_wedge(one_minus_t, ext)
    return PolyForm(omega.degree, P, pieces)
