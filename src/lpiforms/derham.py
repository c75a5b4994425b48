"""The integration (de Rham) map, the Whitney map, and their verification.

The Whitney form of a k-simplex sigma = (w_0 < ... < w_k) is

    W(chi_sigma) = k! * sum_i (-1)^i t_{w_i} dt_{w_0} ^ ... ^i ... ^ dt_{w_k}

on every maximal simplex T containing sigma.  It is the pullback of one
reference form, k! * sum_i (-1)^i l_i dl_0 ^ ... ^i ... ^ dl_k in the full
barycentric coordinates l_0..l_k of the reference k-simplex, along the
selection matrix that sends vertex i to w_i's position in T.  One kernel,
`_whitney`, builds the forms of a batch of cochains from one fixed local
table per (m, k) of those pullbacks.  `whitney` is its one-column case and
hands the form the kernel's layout (`PolyForm._layout`), from which the
form builds its `pieces` on first read.

With the metric-free form integral the composite I o W is the identity on
cochains, on any complex; with the volume-weighted integral I o W is
diagonal, with weight k! * vol(sigma) on sigma (sqrt(k+1)/sqrt(2^k) on a
regular unit k-simplex), which `verify_split` divides out.

`derham_map` and `verify_stokes` integrate the layout of one dimension at
once, as the dense coefficients times the term keys' face tables, and
scatter the values to face rows.  A shared face takes the value of its first
maximal carrier with a piece, in key order across dimensions, as
`PolyForm.trace_on` does: the entries are sorted by column and face row and
then by their carrier's place among the maximal simplices, and each face of
a column keeps its first.  A simplex outside the form's complex gets 0.
`verify_stokes` integrates `PolyForm.d`, which builds no `pieces` either.

`verify_split` uses that both maps are linear: it sends the indicators of
all drawn simplices through the kernel and the first-carrier rule as one
batch, and sums each sample's image from their images.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cochains import Cochain, _coboundary
from .complexes import MetricComplex, _ranges
from .errors import BadDegree, BadDimension, DegenerateSimplex
from .polyform import PolyForm, _integrals, pullback, selection


@dataclass(frozen=True)
class SplitReport:
    max_identity_error: float
    sample_count: int


@dataclass(frozen=True)
class StokesReport:
    max_stokes_error: float
    sample_count: int


@functools.lru_cache(maxsize=1 << 10)
def _local_whitney(pos: tuple[int, ...], m: int) -> tuple:
    """The Whitney form of the face at positions pos of the reference
    m-simplex, as a tuple of items so that callers cannot change it."""
    k = len(pos) - 1
    fact = float(math.factorial(k))
    reference = {(tuple(int(q == i) for q in range(k + 1)),
                  tuple(q for q in range(k + 1) if q != i)): (-1) ** i * fact for i in range(k + 1)}
    return tuple(pullback(reference, selection(pos, tuple(range(m + 1)))).items())


@functools.lru_cache(maxsize=None)
def _whitney_table(m: int, k: int) -> tuple[tuple, np.ndarray]:
    """The term keys of the k-faces' Whitney forms on the reference
    m-simplex, in order of first appearance over the faces in combinations
    order, and W (faces x keys), their coefficients; W is read-only."""
    forms = [dict(_local_whitney(pos, m)) for pos in itertools.combinations(range(m + 1), k + 1)]
    keys = tuple(dict.fromkeys(itertools.chain.from_iterable(forms)))
    W = np.array([[form.get(key, 0.0) for key in keys] for form in forms])
    W.setflags(write=False)
    return keys, W


def _whitney(K: MetricComplex, k: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """The Whitney forms of a batch of k-cochains given as entries (k-row,
    column, value), the rows distinct within a column.  Per dimension m with
    maximal simplices: m, the row of each piece's maximal m-simplex and the
    piece's column, in (row, column) order, the keys of `_whitney_table(m, k)`
    and the pieces' coefficients over them."""
    if not rows.size:
        return
    order, B = np.argsort(rows, kind="stable"), int(cols.max()) + 1
    count = np.bincount(rows, minlength=len(K.simplices_of_dim(k)))
    start = np.cumsum(count) - count
    for m in range(k, K.dim + 1):
        if not (tops := np.flatnonzero(K._tables[2][m] >= 0)).size:
            continue
        faces = K._face_rows(m, k)[tops]
        if not (hit := np.flatnonzero(count[faces])).size:  # (top, position) pairs with entries
            continue
        n = count[faces.flat[hit]]
        e = order[_ranges(start[faces.flat[hit]], n)]
        top, pos = np.divmod(hit.repeat(n), faces.shape[1])
        key, piece = np.unique(top * B + cols[e], return_inverse=True)
        V = np.zeros((len(key), faces.shape[1]))
        V[piece, pos] = vals[e]
        keys, W = _whitney_table(m, k)
        coeffs = np.zeros((len(V), len(keys)))
        for p in range(len(W)):  # ascending, the order of a key-ordered cochain's faces
            coeffs += V[:, p, None] * W[p]
        yield m, tops[key // B], key % B, keys, coeffs


def whitney(c: Cochain) -> PolyForm:
    """Piecewise-linear Whitney form of a cochain, linear in c: the kernel's
    one-column case, whose layout the form keeps and builds its pieces from."""
    K, vec = c.complex, c._vector()
    rows = np.flatnonzero(vec)
    layout: list[tuple] = []
    for m, tops, _, keys, coeffs in _whitney(K, c.degree, rows, 0 * rows, vec[rows]):
        # no piece is 0: its values are not, a face through T's first vertex alone gives
        # a constant term dt_I, and one off it shares its terms only with faces through it
        nonzero = coeffs != 0.0
        # the keys in `_dense`'s order for these pieces: by first piece, then in table order
        cols = np.argsort(nonzero.argmax(axis=0), kind="stable")
        cols = cols[nonzero.any(axis=0)[cols]]
        layout.append((m, tops, tuple(map(keys.__getitem__, cols.tolist())), coeffs[:, cols]))
    return PolyForm._from_layout(c.degree, K, tuple(layout))


def _first_carrier(L: MetricComplex, K: MetricComplex, k: int, parts: list,
                   weighted: bool) -> tuple[np.ndarray, np.ndarray]:
    """The k-face integrals of parts (m, rows of maximal m-simplices of L,
    their columns, values with one column per k-face in combinations order,
    k! times the metric-free integral), each face of a column taking the
    value of its first carrier in key order: as column * n + row over the n
    k-simplices of K, ascending, and the values.  Faces off K are dropped."""
    n = len(L.simplices_of_dim(k))
    if not (parts := [(L._face_rows(m, k)[rows], L._tables[2][m][rows], cols, v)
                      for m, rows, cols, v in parts if m >= k]):
        return np.zeros(0, dtype=int), np.zeros(0)
    key = np.concatenate([(c[:, None] * n + f).ravel() for f, _, c, _ in parts])
    places = np.concatenate([p.repeat(f.shape[1]) for f, p, _, _ in parts])
    vals = np.concatenate([v.ravel() for *_, v in parts])
    order = np.lexsort((places, key))
    key, keep = key[order], np.ones(len(key), dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    (cols, rows), vals = np.divmod(key[keep], n), vals[order[keep]]
    if weighted:
        vals = vals * L._geometry_at(k, rows)[0][rows]
    else:
        vals = vals / math.factorial(k)
    if K is not L:
        rows = K._rows(k, list(map(L.simplices_of_dim(k).__getitem__, rows.tolist())))
        cols, rows, vals = cols[rows >= 0], rows[rows >= 0], vals[rows >= 0]
    return cols * len(K.simplices_of_dim(k)) + rows, vals


def _image(omega: PolyForm, K: MetricComplex, weighted: bool) -> np.ndarray:
    """The integrals of omega over the k-simplices of K, k its degree, by
    `_first_carrier` of its pieces on maximal simplices, the only carriers."""
    L, k = omega.complex, omega.degree
    parts = [(m, rows[live], 0 * rows[live], _integrals(union, dense[live]))
             for m, rows, union, dense in omega._layout()
             if (live := L._tables[2][m][rows] >= 0).any()]
    keys, vals = _first_carrier(L, K, k, parts, weighted)
    return np.bincount(keys, weights=vals, minlength=len(K.simplices_of_dim(k)))


def derham_map(
    omega: PolyForm, K: MetricComplex, k: int, weighted: bool = False
) -> Cochain:
    """Integrate a k-form over every k-simplex.  weighted=False is the
    metric-free integral (Stokes-exact); weighted=True applies the
    volume-weighted convention."""
    if k != omega.degree:
        raise BadDimension(f"cannot integrate a {omega.degree}-form over {k}-simplices")
    return Cochain._from_vector(K, k, _image(omega, K, weighted))


def _draw(rng, n: int, size: int, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """`samples` random cochains on `size` <= n of n simplices: the rows of
    their supports, drawn by Floyd's algorithm (Bentley and Floyd 1987) for
    all samples at once, one column per step, and their normal values."""
    support = np.empty((samples, size), dtype=int)
    for i, j in enumerate(range(n - size, n)):
        # the i entries so far lie in 0..j-1: a repeated t is replaced by j
        t = rng.integers(0, j + 1, size=samples)
        support[:, i] = np.where((support[:, :i] == t[:, None]).any(axis=1), j, t)
    return support, rng.normal(size=(samples, size))


def verify_split(K: MetricComplex, k: int, samples: int, seed: int = 0) -> SplitReport:
    """Check that volume-weighted integration is a retraction of the
    (rescaled) Whitney map on k-cochains, 0 <= k <= dim K (BadDegree if none).

    The Whitney image of each indicator is rescaled per simplex by its
    weighted integral, which is k! * vol(sigma) in closed form: the
    metric-free integral of W(chi_sigma) over sigma is 1 (I o W = id), and
    the weighted one is k! * vol times it.  So the identity holds exactly on
    non-regular complexes too.

    Each sample is a random cochain c on min(4, n) of the n k-simplices.  All
    samples are drawn first, in one batch by `_draw`; the rescaled
    indicators of the drawn simplices then go through the Whitney kernel and
    the first-carrier rule as one batch, one column each.  The entries of
    each sample's image, c(sigma) times its columns' entries, and of -c are
    summed by (sample, row); the largest sum is the error.  Memory grows with
    the entries, not with n times the columns.  A drawn simplex of zero
    volume has no rescaling and raises DegenerateSimplex.
    """
    if not 0 <= k <= K.dim:
        raise BadDimension(f"no {k}-cochains on a complex of dimension {K.dim}")
    if samples < 1:
        raise ValueError(f"samples = {samples}: at least 1 required")
    if not (sigmas := K.simplices_of_dim(k)):
        raise BadDegree(f"no {k}-simplices to draw cochains on")
    n, size = len(sigmas), min(4, len(sigmas))
    support, vals = (a.ravel() for a in _draw(np.random.default_rng(seed), n, size, samples))
    if not (vol := K._geometry_at(k, support)[0])[support].all():
        s = sigmas[support[vol[support] == 0.0][0]]
        raise DegenerateSimplex(f"{s} has zero volume, so W(chi) has no weighted rescaling")
    drawn, column = np.unique(support, return_inverse=True)
    chi = 1.0 / (math.factorial(k) * vol[drawn])
    parts = [(m, tops, cols, _integrals(keys, coeffs)) for m, tops, cols, keys, coeffs
             in _whitney(K, k, drawn, np.arange(len(drawn)), chi)]
    keys, image = _first_carrier(K, K, k, parts, True)
    start = np.searchsorted(keys, np.arange(len(drawn)) * n)
    count = np.diff(np.append(start, len(keys)))[column]  # per drawn entry of a sample
    at, sample = _ranges(start[column], count), np.arange(samples).repeat(size)
    _, where = np.unique(np.concatenate([sample.repeat(count) * n + keys[at] % n,
                                         sample * n + support]), return_inverse=True)
    terms = np.concatenate([vals.repeat(count) * image[at], -vals])  # summed in this order
    max_err = float(np.abs(np.bincount(where, weights=terms)).max())
    return SplitReport(max_identity_error=max_err, sample_count=samples)


def verify_stokes(omega: PolyForm, K: MetricComplex) -> StokesReport:
    """Entrywise residual of I(d omega) - coboundary(I omega) over the
    (k+1)-simplices, with the metric-free integral."""
    k = omega.degree
    taus = K.simplices_of_dim(k + 1)
    if not taus:
        raise BadDegree(f"no {k + 1}-simplices to check a {k}-form against")
    lhs, rhs = _image(omega.d(), K, False), _coboundary(K, k, _image(omega, K, False))
    err = float(np.abs(lhs - rhs).max())
    return StokesReport(max_stokes_error=err, sample_count=len(taus))


def _stokes_error(K: MetricComplex, samples: int, seed: int) -> float:
    """The largest `verify_stokes` residual over random k-forms on K, each k
    drawn from 0..dim K - 1 (BadDegree if dim K < 1).  On a single cell the
    forms have arbitrary polynomial terms.  Elsewhere shared faces need
    matching traces, so each sample checks a Whitney form W(c) and the
    product W(c0) ^ W(c), which is conforming too and of degree 2."""
    if K.dim < 1:
        raise BadDegree("the complex has no 1-simplices to check Stokes' theorem on")
    rng = np.random.default_rng(seed)
    tops = K.maximal_simplices()
    worst = 0.0
    for _ in range(samples):
        k = int(rng.integers(0, K.dim))
        if len(tops) == 1:  # no shared face, so any polynomial terms
            m = len(tops[0]) - 1
            forms = [PolyForm(k, K, {tops[0]: {
                (tuple(int(rng.integers(0, 3)) for _ in range(m)),
                 tuple(sorted(rng.choice(m, size=k, replace=False) + 1))): float(rng.normal())
                for _ in range(3)}})]
        else:
            c, c0 = (Cochain(j, {s: float(rng.normal()) for s in K.simplices_of_dim(j)}, K)
                     for j in (k, 0))
            omega, w0 = whitney(c), whitney(c0)
            # a k-form is 0 on a simplex of dimension below k, where wedge refuses it
            w0 = PolyForm(0, K, {T: p for T, p in w0.pieces.items() if len(T) > k})
            forms = [omega, w0.wedge(omega)]
        worst = max(worst, *(verify_stokes(form, K).max_stokes_error for form in forms))
    return worst
