"""Finite-dimensional chain-complex utilities: cohomology dimensions and
an inductively constructed contracting homotopy on acyclic complexes.

Matrices are kept as the row-major (row, column, value) triples of their
nonzero entries; a dense matrix is a read-only view built on first read.  A
MatrixComplex keeps each D_i's triples, also grouped by row and by column:
`assemble` takes them from the face table (up to SIZE_LIMIT simplices); a
hand-built complex copies its matrices and scans each once.  The cohomology
ranks each dense D_i once, by SVD and, as the exact oracle, by lowest-pivot
column elimination over the rationals (Edelsbrunner-Letscher-Zomorodian 2002).

The contraction is the paper's descending induction h^i = eta^i (1 - h^{i+1}
D_i), with eta from a coreduction matching on the nonzero pattern of the D_i
(Mrozek-Batko 2009; Forman 1998): a cell with one unpaired facet is paired
with it, and when none is left the lowest unpaired cell is critical.  In
removal order D_{i-1}[U, L] (upper by lower partners) is triangular, so eta^i
is a forward substitution, integer for +-1 pivots, that reads U and writes L:
h^i = eta^i.  Pairing u with l fills the sparse row of l from the rows of
u's facets already paired as lower cells, the only nonzero ones.  As D D = 0,
D eta + eta D = 1 - g f for the chain maps f, g to and from the Morse complex
on the critical cells; h^i += g pinv(f D g) f contracts its block too, on
that degree's dense D and h.  Each degree of h is checked, from the top, by
its defect |D h + h D - 1|, summed from the nonzero products by row blocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .complexes import MetricComplex, _ranges
from .errors import BadDegree, BadDimension, TooLarge

SIZE_LIMIT = 2000
RANK_RTOL = 1e-10
STEP_TOL = 1e-8
_BLOCK = 1 << 16  # defect bins reduced at a time


def _scan(h: np.ndarray):
    """The nonzero (row, column, value) triples of h, row-major; NaN counts."""
    j, c = np.nonzero(h != 0)  # a bool scan, faster than np.nonzero(h)
    return j, c, h[j, c]


def _fill(shape: tuple[int, int], r: np.ndarray, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The read-only matrix of the given shape with the triples (r, c, v)."""
    out = np.zeros(shape)
    out[r, c] = v
    out.setflags(write=False)
    return out


def _incidence(shape: tuple[int, int], r: np.ndarray, c: np.ndarray, v: np.ndarray):
    """The nonzero triples (r, c, v) of one matrix, grouped by row and by column
    as (ptr, other index, value, other index per group as a list): group g is
    the slice ptr[g]:ptr[g + 1]."""
    out = []
    for key, other, size in ((r, c, shape[0]), (c, r, shape[1])):
        order = np.argsort(key, kind="stable")
        ptr, idx = np.searchsorted(key[order], np.arange(size + 1)), other[order]
        flat, bounds = idx.tolist(), ptr.tolist()
        out.append((ptr, idx, v[order], [flat[a:b] for a, b in zip(bounds, bounds[1:])]))
    return tuple(out)


@dataclass(frozen=True)
class MatrixComplex:
    """Coboundary matrices D_i: R^{dims[i]} -> R^{dims[i+1]}, i = 0..n-1, kept as
    `_triples` (shape, rows, columns, values) and `_incidence`.  `matrices` are
    read-only copies, or for an assembled complex built on first read."""

    dims: tuple[int, ...]
    matrices: tuple[np.ndarray, ...] = field(repr=False)
    _triples: tuple = field(init=False, compare=False, repr=False)
    _incidence: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.matrices) != max(len(self.dims) - 1, 0):
            raise BadDimension(f"{len(self.matrices)} matrices for {len(self.dims)} degrees")
        for i, D in enumerate(self.matrices):
            if D.shape != (self.dims[i + 1], self.dims[i]):
                raise BadDimension(f"D_{i} has shape {D.shape}, "
                                   f"expected {(self.dims[i + 1], self.dims[i])}")
        mats = tuple(np.array(D) for D in self.matrices)
        for D in mats:
            D.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "_triples", tuple((D.shape, *_scan(D)) for D in mats))
        object.__setattr__(self, "_incidence", tuple(_incidence(*t) for t in self._triples))
        if not all(np.isfinite(v).all() for *_, v in self._triples):
            raise ValueError("a coboundary matrix has a non-finite entry")

    def __getattr__(self, name: str):
        """The `matrices` of an assembled complex, built on first read."""
        if name != "matrices":
            raise AttributeError(name)
        self.__dict__["matrices"] = tuple(_fill(*t) for t in self._triples)
        return self.matrices

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixComplex):
            return NotImplemented
        return self.dims == other.dims and all(
            np.array_equal(a, b) for a, b in zip(self.matrices, other.matrices))

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def matrix(self, i: int) -> np.ndarray:
        """D_i, for 0 <= i < top."""
        if not 0 <= i < len(self._triples):
            raise BadDimension(f"no D_{i}: the complex has D_0..D_{len(self._triples) - 1}")
        return self.matrices[i]


@dataclass(frozen=True)
class Contraction:
    """Degree-lowering maps h^i: R^{dims[i]} -> R^{dims[i-1]}, i >= 1.  One from
    `contract` keeps each h^i's triples and builds `maps` on first read."""

    maps: dict[int, np.ndarray] = field(repr=False)

    def __getattr__(self, name: str):
        """The `maps` of a contraction from `contract`, read-only."""
        if name != "maps":
            raise AttributeError(name)
        self.__dict__["maps"] = {i: _fill(*t) for i, t in self._triples.items()}
        return self.maps

    def __eq__(self, other) -> bool:
        if not isinstance(other, Contraction):
            return NotImplemented
        return self.maps.keys() == other.maps.keys() and all(
            np.array_equal(m, other.maps[i]) for i, m in self.maps.items())

    def _nonzeros(self) -> dict:
        """Per degree, h^i's shape and its row-major triples, kept or scanned; a map
        that is not 2-D gets no triples, as `verify_contraction` refuses its shape."""
        if "_triples" in self.__dict__:
            return self._triples
        return {i: (m.shape, *(_scan(m) if m.ndim == 2 else ())) for i, m in self.maps.items()}


@dataclass(frozen=True)
class ContractionFailure:
    degree: int
    residual: float


def assemble(K: MetricComplex, augmented: bool = False) -> MatrixComplex:
    """Matrix form of the cochain complex in canonical (sorted) simplex
    order.  With augmented=True a column of ones R -> C^0 is prepended,
    absorbing the H^0 of a connected complex into an acyclic complex."""
    if K.simplex_count() > SIZE_LIMIT:
        raise TooLarge(f"complex has {K.simplex_count()} simplices; "
                       f"dense limit is {SIZE_LIMIT}")
    dims = [len(K.simplices_of_dim(k)) for k in range(K.dim + 1)]
    triples = []
    for k, faces in enumerate(K._tables[1][1:]):  # D_k[tau, tau without v_i] = (-1)^i
        # tau without v_i falls as i rises, so the columns ascend in reverse
        triples.append((np.arange(len(faces)).repeat(k + 2), faces[:, ::-1].ravel(),
                        np.tile((-1.0) ** np.arange(k + 1, -1, -1), len(faces))))
    if augmented:
        ones = (np.arange(dims[0]), np.zeros(dims[0], dtype=int), np.ones(dims[0]))
        dims, triples = [1] + dims, [ones] + triples
    M = object.__new__(MatrixComplex)  # finite row-major triples: nothing to fill, copy or scan
    t = tuple(((dims[i + 1], dims[i]), *x) for i, x in enumerate(triples))
    M.__dict__.update(dims=tuple(dims), _triples=t, _incidence=tuple(_incidence(*x) for x in t))
    return M


def _rank(D: np.ndarray) -> int:
    if D.size == 0:
        return 0
    s = np.linalg.svd(D, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0]))


def _exact_rank(D: np.ndarray) -> int:
    """Exact rank; the entries must be (near-)integers, as D_i's are."""
    pivots: dict[int, dict[int, Fraction]] = {}  # lowest row -> reduced column
    for col in D.T:
        c = {int(i): q for i in np.flatnonzero(col)
             if (q := Fraction(col[i]).limit_denominator(10**6))}
        while c and (low := max(c)) in pivots:
            p = pivots[low]
            f = c[low] / p[low]
            for i, x in p.items():
                if (v := c.get(i, 0) - f * x):
                    c[i] = v
                else:
                    c.pop(i, None)
        if c:
            pivots[low] = c
    return len(pivots)


def _cohomology(M: MatrixComplex, rank) -> list[int]:
    """dim ker D_i - rank D_{i-1} per degree, with the given rank function."""
    r = [0, *(rank(D) for D in M.matrices), 0]  # r[i + 1] = rank D_i
    return [M.dims[i] - r[i + 1] - r[i] for i in range(M.top + 1)]


def cohomology_dims(M: MatrixComplex) -> list[int]:
    """dim ker D_i - rank D_{i-1} per degree, by SVD rank."""
    return _cohomology(M, _rank)


def rational_cohomology_dims(M: MatrixComplex) -> list[int]:
    """Exact oracle: the same dimensions with ranks over the rationals."""
    return _cohomology(M, _exact_rank)


def _products(left: tuple, right: tuple):
    """(row, column, value) of each product left[r, j] right[j, c] of nonzeros, ascending in
    r, then j, then c; both are grouped by row as (ptr, columns, values, ...)."""
    (lp, lc, lv, *_), (rp, rc, rv, *_) = left, right
    n = rp[lc + 1] - rp[lc]
    at = _ranges(rp[lc], n)
    return (np.repeat(np.repeat(np.arange(len(lp) - 1), np.diff(lp)), n), rc[at],
            np.repeat(lv, n) * rv[at])


def _defect(M: MatrixComplex, nz: dict, i: int):
    """(max or -1.0 if empty, size, first (row, column) of the max) of |D_{i-1} h^i + h^{i+1}
    D_i - 1| (no h^{i+1} term at the top) from nz = {i: (shape, rows, columns, values) of h^i},
    by blocks of rows.  Each bin sums its products in the order of one n x n `bincount` over
    D_{i-1} h^i, -1 and h^{i+1} D_i; a non-finite h entry also meets the zeros of D (0 * inf
    is NaN), and its other products count twice, which changes no IEEE sum."""
    n, ((m, _), j, c, v), d = M.dims[i], nz[i], np.arange(M.dims[i] + 1)
    terms = [_products(M._incidence[i - 1][0], (np.searchsorted(j, np.arange(m + 1)), c, v))]
    if (bad := ~np.isfinite(v)).any():
        terms.append((d[:-1].repeat(bad.sum()), np.tile(c[bad], n),
                      (_fill(*M._triples[i - 1])[:, j[bad]] * v[bad]).ravel()))
    terms.append((d[:-1], d[:-1], -np.ones(n)))
    if i + 1 in nz:
        _, a, j, v = nz[i + 1]
        terms.append(_products((np.searchsorted(a, d), j, v), M._incidence[i][0]))
        if (bad := ~np.isfinite(v)).any():
            terms.append((a[bad].repeat(n), np.tile(d[:-1], bad.sum()),
                          (_fill(*M._triples[i])[j[bad]] * v[bad, None]).ravel()))
    starts = [*range(0, n, max(_BLOCK // max(n, 1), 1)), n]
    terms = [(r * n + c, v, np.searchsorted(r, starts).tolist()) for r, c, v in terms]
    peak, at = -1.0, None
    for b, (r0, r1) in enumerate(zip(starts, starts[1:])):
        a = np.bincount(np.concatenate([k[e[b]:e[b + 1]] for k, _, e in terms]) - r0 * n,
                        np.concatenate([v[e[b]:e[b + 1]] for _, v, e in terms]),
                        minlength=(r1 - r0) * n)
        np.abs(a, out=a)
        if (top := a.max()) > peak or np.isnan(top):  # the first max, or the first NaN
            peak, at = top, divmod(r0 * n + int(a.argmax()), n)
            if np.isnan(top):
                break
    return peak, n * n, at


def _coreduce(M: MatrixComplex):
    """eta^i per degree i >= 1, as the row-major triples of its nonzeros, and
    the critical cells, from the matching."""
    facets = [[[]] * M.dims[0]] + [by_row[3] for by_row, _ in M._incidence]
    cofaces = [by_col[3] for _, by_col in M._incidence] + [[[]] * M.dims[-1]]
    starts, values = ([[]] + [by_row[j].tolist() for by_row, _ in M._incidence] for j in (0, 2))
    unpaired, critical = [list(map(len, fs)) for fs in facets], [[] for _ in M.dims]
    eta = {i: {} for i in range(1, len(M.dims))}  # eta[i][l]: (columns, values) of row l
    queue = deque(cells := [(i, c) for i, d in enumerate(M.dims) for c in range(d)])

    def remove(i, c):  # its count of live facets goes below 0, and its cofaces' falls by 1
        unpaired[i][c] = -1
        for r in cofaces[i][c]:
            unpaired[i + 1][r] -= 1
            queue.append((i + 1, r))

    for low in cells:
        while queue:
            i, u = queue.popleft()
            if unpaired[i][u] == 1:  # pair u with l, its one unpaired facet
                fs, p, rows = facets[i][u], starts[i][u], eta[i]
                l = next(j for j in fs if unpaired[i - 1][j] >= 0)
                row = {}  # (e_u - D[u] eta) / D[u, l], where only the rows of
                for f, d in zip(fs, values[i][p:p + len(fs)]):  # facets paired below are not 0
                    for c, x in zip(*rows.get(f, ((), ()))):
                        row[c] = row.get(c, 0.0) - d * x
                row[u] = 1.0  # u is paired only now, so no row holds it yet
                pivot = values[i][p + fs.index(l)]
                rows[l] = list(row), [x / pivot for x in row.values()]
                remove(i, u)
                remove(i - 1, l)
        if unpaired[low[0]][low[1]] >= 0:  # the lowest cell left, so its facets are gone
            critical[low[0]].append(low[1])
            remove(*low)
    for i, rows in eta.items():
        r = np.repeat(np.fromiter(rows, int, len(rows)), [len(c) for c, _ in rows.values()])
        c = np.fromiter(chain.from_iterable(c for c, _ in rows.values()), int, len(r))
        v = np.fromiter(chain.from_iterable(v for _, v in rows.values()), float, len(r))
        o = np.argsort(r * M.dims[i] + c, kind="stable")
        o = o[v[o] != 0]  # exact zeros go; NaN stays, as in `_scan`
        eta[i] = (M.dims[i - 1], M.dims[i]), r[o], c[o], v[o]
    return eta, critical


def contract(M: MatrixComplex) -> Contraction | ContractionFailure:
    """h^i for i = top..1 from the matching, so that D h + h D = 1 in degrees
    >= 1.  Fails (with the degree and residual) on the first degree, from the
    top, where a residual exceeds STEP_TOL: where the right-inverse equation
    d eta = 1 is unsolvable on the cycles, i.e. where cohomology is present."""
    h, K = _coreduce(M)
    for i in range(M.top, 0, -1):
        if K[i] and K[i - 1]:  # the Morse correction (see the module docstring)
            D, hi = _fill(*M._triples[i - 1]), _fill(*h[i])
            f = np.eye(M.dims[i])[K[i]] - D[K[i]] @ hi
            g = np.eye(M.dims[i - 1])[:, K[i - 1]] - hi @ D[:, K[i - 1]]
            h[i] = (hi.shape, *_scan(hi + g @ np.linalg.pinv(f @ D @ g, rcond=RANK_RTOL) @ f))
        residual = float(max(_defect(M, h, i)[0], 0.0))  # a NaN max stays NaN
        if not residual <= STEP_TOL:  # NaN fails too
            return ContractionFailure(degree=i, residual=residual)
    out = object.__new__(Contraction)
    out.__dict__["_triples"] = h
    return out


@dataclass(frozen=True)
class ContractionReport:
    """`checked` entries compared; `worst` = (degree, row, column) of the largest."""

    residuals: dict[int, float]
    max_residual: float
    passed: bool
    checked: int
    worst: tuple[int, int, int] | None


def verify_contraction(
    M: MatrixComplex, h: Contraction, tol: float = 1e-8
) -> ContractionReport:
    """Entrywise residual of D_{i-1} h^i + h^{i+1} D_i - 1 per degree >= 1; h
    must hold h^i for every degree 1 <= i <= top, and some entry must be compared."""
    if M.top < 1:
        raise BadDegree("the complex has no degree >= 1 to contract")
    nz = h._nonzeros()
    if missing := [i for i in range(1, M.top + 1) if i not in nz]:
        raise BadDegree(f"the contraction has no h^i for degrees {missing}")
    if wrong := {i: t[0] for i, t in nz.items()  # products would miss extra rows
                 if not 0 < i <= M.top or t[0] != (M.dims[i - 1], M.dims[i])}:
        raise BadDimension(f"shapes {wrong} are not (dims[i - 1], dims[i]) for dims {M.dims}")
    peaks = {i: _defect(M, nz, i) for i in range(1, M.top + 1)}
    residuals = {i: float(max(m, 0.0)) for i, (m, _, _) in peaks.items()}  # a NaN m stays
    checked = sum(size for _, size, _ in peaks.values())
    i = 1 + int(np.argmax([m for m, _, _ in peaks.values()]))  # NaN wins
    worst = (i, *peaks[i][2]) if peaks[i][1] else None
    return ContractionReport(residuals, residuals[i], checked > 0 and residuals[i] <= tol,
                             checked, worst)
