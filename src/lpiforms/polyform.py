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

Pointwise values have one path, `_components_at`, which evaluates a piece at
many points at once: with E the (terms x m) exponent matrix and C the map
from terms to the dt_I components, V = prod(pts ** E) @ C, and
|omega|^2 = V G V^T with G the covector Gram matrix of the simplex.  Norms,
`evaluate` and `continuity_defect` all go through it.

Two caches serve the hot paths.  `pullback` is linear in the terms, so it
sums cached images of single term keys (a module-level LRU cache keyed by
the term key and B; almost every B is a 0/1 matrix, so the cache stays
small).  The complex keeps each simplex's volume and covector Gram matrix
once computed (`MetricComplex.volume`, `MetricComplex.covector_gram`).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .complexes import (
    MetricComplex,
    PiSequence,
    SimplexKey,
    build_complex,
    is_subcomplex,
)
from .errors import BadCarrier, BadDimension, BadExponent, BadSubcomplex

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

def _wedge_indices(i: tuple[int, ...], j: tuple[int, ...]):
    """Merge two ascending index tuples; return (sorted tuple, sign) or None."""
    if set(i) & set(j):
        return None
    merged = i + j
    order = sorted(range(len(merged)), key=lambda q: merged[q])
    # parity of the sorting permutation
    sign = 1
    seen = [False] * len(order)
    for s in range(len(order)):
        if seen[s]:
            continue
        q, cl = s, 0
        while not seen[q]:
            seen[q] = True
            q = order[q]
            cl += 1
        if cl % 2 == 0:
            sign = -sign
    return tuple(sorted(merged)), sign

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
    for (exps, idx), c in a.items():
        for j in range(1, m + 1):
            e = exps[j - 1]
            if e == 0 or j in idx:
                continue
            nexps = tuple(x - 1 if q == j - 1 else x for q, x in enumerate(exps))
            below = sum(1 for i in idx if i < j)
            nidx = tuple(sorted(idx + (j,)))
            key = (nexps, nidx)
            out[key] = out.get(key, 0.0) + (-1) ** below * c * e
    return t_clean(out)

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


def _components_at(terms: Terms, pts: np.ndarray, k: int) -> np.ndarray:
    """Values of the dt_I components of degree-k terms at the rows of pts
    (reduced coordinates, shape (npts, m)), one column per ascending k-subset
    I of 1..m in `itertools.combinations` order: prod(pts ** E) @ C."""
    n, m = len(terms), pts.shape[1]
    col = _columns(m, k)
    E = np.array([e for e, _ in terms], dtype=int).reshape(n, m)
    C = np.zeros((n, len(col)))
    C[np.arange(n), [col[I] for _, I in terms]] = list(terms.values())
    return np.prod(pts[:, None, :] ** E, axis=2) @ C


def _columns(m: int, k: int) -> dict[tuple[int, ...], int]:
    return {I: j for j, I in enumerate(itertools.combinations(range(1, m + 1), k))}


# ---------------------------------------------------------------------------
# quadrature on simplices
# ---------------------------------------------------------------------------

_rule_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

def simplex_rule(m: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Conical-product rule on the reference m-simplex, exact for total
    degree <= degree.  Returns (points in reduced coords (npts, m), weights
    summing to 1); the integral of f dV is vol * sum w_i f(x_i).  Both
    arrays are cached and read-only, since every caller shares them."""
    q = max(1, (degree + 2) // 2)
    key = (m, q)
    if key in _rule_cache:
        return _rule_cache[key]
    if m == 0:
        pts, wts = np.zeros((1, 0)), np.ones(1)
    else:
        axes = []
        for j in range(1, m + 1):
            alpha = m - j
            x, w = roots_jacobi(q, alpha, 0.0)
            x = (x + 1.0) / 2.0
            w = w / (2.0 ** (alpha + 1))
            axes.append((x, w))
        pts_list, wts_list = [], []
        for combo in itertools.product(*(range(q) for _ in range(m))):
            u = np.zeros(m)
            rem = 1.0
            wt = 1.0
            for j, ci in enumerate(combo):
                x, w = axes[j]
                u[j] = rem * x[ci]
                wt *= w[ci]
                rem *= 1.0 - x[ci]
            pts_list.append(u)
            wts_list.append(wt)
        pts = np.array(pts_list)
        wts = np.array(wts_list)
        wts = wts / wts.sum()  # normalize: weights vs. volume measure
    pts.setflags(write=False)
    wts.setflags(write=False)
    _rule_cache[key] = (pts, wts)
    return pts, wts


def monomial_integral(exps: tuple[int, ...], m: int) -> float:
    """int over the reference m-simplex of t_1^a1 ... t_m^am relative to the
    normalized volume measure (total mass 1): m! * prod a_i! / (m + sum a)!"""
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

    def __post_init__(self):
        clean = {T: t_clean(p) for T, p in self.pieces.items()}
        object.__setattr__(self, "pieces", {T: p for T, p in clean.items() if p})

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero(K: MetricComplex, k: int) -> "PolyForm":
        return PolyForm(k, K, {})

    @staticmethod
    def from_barycentric(
        K: MetricComplex, k: int, pieces_full: dict[SimplexKey, Terms]
    ) -> "PolyForm":
        """Build from terms over full barycentric variables t_0..t_m."""
        pieces = {T: pullback(full, selection(T, T)) for T, full in pieces_full.items()}
        return PolyForm(k, K, pieces)

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

    def poly_degree(self) -> int:
        return max(
            (sum(exps) for p in self.pieces.values() for (exps, _idx) in p),
            default=0,
        )

    # -- calculus -----------------------------------------------------------

    def d(self) -> "PolyForm":
        pieces = {T: t_d(p, len(T) - 1) for T, p in self.pieces.items()}
        return PolyForm(self.degree + 1, self.complex, pieces)

    def wedge(self, other: "PolyForm") -> "PolyForm":
        K = self.complex
        k = self.degree + other.degree
        if any(k > len(T) - 1 for T in set(self.pieces) | set(other.pieces)):
            raise BadDimension("wedge degree exceeds carrier dimension")
        pieces = {}
        for T in set(self.pieces) & set(other.pieces):
            pieces[T] = t_wedge(self.pieces[T], other.pieces[T])
        return PolyForm(k, K, pieces)

    def trace_on(self, sigma: SimplexKey) -> Terms:
        """Tangential trace onto a simplex, in sigma's reduced coordinates.

        The piece is the first carrier of sigma that has one; the continuity
        invariant makes the choice immaterial.  Without one the trace is {}.
        """
        sigma = tuple(sigma)
        for T in self.complex.carriers.get(sigma, ()):
            if T in self.pieces:
                if T == sigma:
                    return self.pieces[T]
                return pullback(self.pieces[T], selection(T, sigma))
        return {}

    def restrict(self, S: MetricComplex) -> "PolyForm":
        """Pullback along the inclusion of a subcomplex."""
        if not is_subcomplex(S, self.complex):
            raise BadSubcomplex("restriction target is not a subcomplex")
        pieces = {}
        for T in S.maximal_simplices():
            tr = self.trace_on(T)
            if tr:
                pieces[T] = tr
        return PolyForm(self.degree, S, pieces)

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
        form integral (Stokes-exact).
        """
        tau = tuple(tau)
        k = self.degree
        if len(tau) - 1 != k:
            raise BadDimension(f"cannot integrate a {k}-form over {tau}")
        sign = _permutation_sign(tau)
        key = tuple(sorted(tau))
        tr = self.trace_on(key)
        if not tr:
            return 0.0
        full_idx = tuple(range(1, k + 1))
        total = 0.0
        for (exps, idx), c in tr.items():
            if idx != full_idx:
                continue
            total += c * monomial_integral(exps, k)
        if weighted:
            return sign * total * self.complex.volume(key)
        return sign * total / math.factorial(k) if k > 0 else sign * total

    # -- norms --------------------------------------------------------------

    def _norm_sq_at(self, T: SimplexKey, pts: np.ndarray) -> np.ndarray:
        """|omega|^2 in the simplex metric at the rows of pts (reduced
        coordinates on piece T)."""
        if T not in self.pieces:
            return np.zeros(len(pts))
        V = _components_at(self.pieces[T], pts, self.degree)
        G = self.complex.covector_gram(T, self.degree)
        return np.maximum(np.sum((V @ G) * V, axis=1), 0.0)

    def norm_at(self, T: SimplexKey, t: np.ndarray) -> float:
        """Pointwise Euclidean norm |omega(x)| in the simplex metric."""
        pts = np.asarray(t, dtype=float).reshape(1, len(T) - 1)
        return math.sqrt(self._norm_sq_at(tuple(T), pts)[0])

    def lp_norm(self, p: float, quad_degree: int | None = None) -> float:
        """||omega||_{Omega_p}: per-simplex integral of |omega|^p, p-th root.

        Exact (up to the rule's polynomial exactness) for even integer p;
        otherwise the quadrature order is raised until two consecutive
        conical rules agree to 1e-10 relative.
        """
        if p < 1:
            raise BadExponent(f"p = {p} < 1")
        if quad_degree is not None:
            deg = quad_degree
        elif float(p).is_integer() and int(p) % 2 == 0:
            deg = int(p) * (self.poly_degree() + 1)
        else:
            deg = None
        total = 0.0
        for T in self.pieces:
            m = len(T) - 1
            if m < self.degree:
                continue
            if deg is not None:
                acc = self._rule_sum(T, simplex_rule(m, deg), p)
            else:
                acc = self._adaptive_piece(T, m, p)
            total += self.complex.volume(T) * acc
        return total ** (1.0 / p)

    def _rule_sum(self, T, rule, p) -> float:
        """Quadrature of |omega|^p on T, relative to unit volume."""
        pts, wts = rule
        return float(wts @ self._norm_sq_at(T, pts) ** (p / 2.0))

    def _adaptive_piece(self, T, m, p) -> float:
        prev = None
        for deg in (8, 14, 20, 28, 38):
            acc = self._rule_sum(T, simplex_rule(m, deg), p)
            if prev is not None and abs(acc - prev) <= 1e-10 * (1.0 + abs(acc)):
                return acc
            prev = acc
        return prev

    def sup_norm(self, T: SimplexKey, resolution: int = 8) -> float:
        """Lattice lower bound of ess-sup |omega| on T."""
        T = tuple(T)
        if T not in self.pieces:
            tr = self.trace_on(T)
            if not tr:
                return 0.0
            sub = PolyForm(self.degree, self.complex, {T: tr})
            return sub.sup_norm(T, resolution)
        return math.sqrt(float(self._norm_sq_at(T, _lattice(len(T) - 1, resolution)).max()))

    def sl_pi_norm(self, pi: PiSequence, resolution: int = 8) -> float:
        """Per-simplex sup-norm Sobolev norm; the second sum runs over d(omega)."""
        k = self.degree
        first = sum(
            self.sup_norm(T, resolution) ** pi[k] for T in self.pieces
        ) ** (1.0 / pi[k])
        if k >= self.complex.dim:
            return first
        dw = self.d()
        second = sum(
            dw.sup_norm(T, resolution) ** pi[k + 1] for T in dw.pieces
        )
        return first + second ** (1.0 / pi[k + 1]) if second else first

    def omega_pi_norm(self, pi: PiSequence) -> float:
        k = self.degree
        total = self.lp_norm(pi[k])
        if k < self.complex.dim:
            total += self.d().lp_norm(pi[k + 1])
        return total

    def continuity_defect(self, samples: int = 4) -> float:
        """Max mismatch of the traces of adjacent pieces, on the lattice of
        every face shared by two or more maximal simplices.  A maximal
        simplex without a piece contributes the zero trace."""
        worst = 0.0
        for sigma, tops in self.complex.carriers.items():
            l = len(sigma) - 1
            if len(tops) < 2 or l < self.degree or not any(T in self.pieces for T in tops):
                continue
            pts = _lattice(l, samples)
            vals = np.array([
                _components_at(pullback(self.piece(T), selection(T, sigma)), pts, self.degree)
                for T in tops
            ])
            worst = max(worst, float((vals.max(axis=0) - vals.min(axis=0)).max()))
        return worst


def _permutation_sign(tau: tuple[int, ...]) -> int:
    sign = 1
    tau = list(tau)
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            if tau[i] > tau[j]:
                sign = -sign
    return sign


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


def prism_complex(K: MetricComplex, n: int) -> tuple[MetricComplex, dict[int, tuple[int, int]]]:
    """Triangulated prism (cube boundary) x [0,1]; returns the complex and a
    map prism-vertex-id -> (base vertex id, level)."""
    base = sorted(K.vertices)
    vid: dict[tuple[int, int], int] = {}
    vertices = {}
    for i, v in enumerate(base):
        for level in (0, 1):
            nid = 2 * i + level
            vid[(v, level)] = nid
            vertices[nid] = tuple(K.vertices[v]) + (float(level),)
    tops = []
    for cell in K.maximal_simplices():
        if len(cell) == 1:
            (a,) = cell
            tops.append(tuple(sorted((vid[(a, 0)], vid[(a, 1)]))))
        else:
            a, b = cell
            a0, a1 = vid[(a, 0)], vid[(a, 1)]
            b0, b1 = vid[(b, 0)], vid[(b, 1)]
            tops.append(tuple(sorted((a0, b0, b1))))
            tops.append(tuple(sorted((a0, a1, b1))))
    P = build_complex(vertices, tops)
    reverse = {nid: key for key, nid in vid.items()}
    return P, reverse


def prism_extend(omega: PolyForm, n: int) -> PolyForm:
    """Extend a form on the cube boundary to (1-t) * omega on the prism.

    The restriction at t=0 recovers omega; at t=1 the extension vanishes.
    """
    if n not in (1, 2):
        raise BadDimension("prism extension supports n in {1, 2}")
    K = omega.complex
    _check_cube_boundary(K, n)
    P, reverse = prism_complex(K, n)
    pieces: dict[SimplexKey, Terms] = {}
    for T in P.maximal_simplices():
        base, level = zip(*(reverse[v] for v in T))
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
