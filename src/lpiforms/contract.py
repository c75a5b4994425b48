"""Finite-dimensional chain-complex utilities: cohomology dimensions and
an inductively constructed contracting homotopy on acyclic complexes.

A MatrixComplex holds its dense, read-only D_i (so `assemble` is capped at
SIZE_LIMIT simplices) and their nonzero pattern, built once: the (row, column,
value) triples of each D_i, reachable by row and by column.  `assemble` takes
the triples from the complex's face table and fills each D_i from them, so an
assembled complex is never scanned; a hand-built one copies and scans its
matrices.  Each D_i is ranked once, by SVD and, as the exact oracle, by sparse
column elimination over the rationals with lowest-row pivots
(Edelsbrunner-Letscher-Zomorodian 2002).

The contraction is the paper's descending induction h^i = eta^i (1 - h^{i+1}
D_i), with eta from a coreduction matching on the nonzero pattern of the D_i
(Mrozek-Batko 2009; Forman 1998): a cell with one unpaired facet is paired
with it, and when none is left the lowest unpaired cell is critical.  In
removal order D_{i-1}[U, L] (upper by lower partners) is triangular, so eta^i
is a forward substitution, integer for +-1 pivots, that reads U and writes L:
h^i = eta^i.  Pairing u with l fills the row of l from the rows of u's facets
already paired as lower cells, the only nonzero ones.  As D D = 0, D eta +
eta D = 1 - g f for the chain maps f, g to and from the Morse complex on the
critical cells; h^i += g pinv(f D g) f contracts its block too.  Each degree
is checked, from the top, by its defect |D h + h D - 1|, summed from the
nonzero products over the pattern.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import MetricComplex
from .errors import BadDegree, BadDimension, TooLarge

SIZE_LIMIT = 2000
RANK_RTOL = 1e-10
STEP_TOL = 1e-8


def _scan(h: np.ndarray):
    """The nonzero (row, column, value) triples of h, row-major; NaN counts."""
    j, c = np.nonzero(h != 0)  # a bool scan, faster than np.nonzero(h)
    return j, c, h[j, c]


def _incidence(r: np.ndarray, c: np.ndarray, v: np.ndarray, shape: tuple[int, int]):
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
    """Coboundary matrices D_i: R^{dims[i]} -> R^{dims[i+1]}, i = 0..n-1, stored
    as read-only copies with their nonzero pattern (`_incidence`, one scan per
    matrix, built once)."""

    dims: tuple[int, ...]
    matrices: tuple[np.ndarray, ...] = field(repr=False)
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
        object.__setattr__(self, "_incidence", tuple(
            _incidence(*_scan(D), D.shape) for D in mats))
        if not all(np.isfinite(by_row[2]).all() for by_row, _ in self._incidence):
            raise ValueError("a coboundary matrix has a non-finite entry")

    @classmethod
    def _from_triples(cls, dims: tuple[int, ...], triples: list) -> "MatrixComplex":
        """The complex whose D_i has the finite nonzero triples (rows, columns,
        values) triples[i], row-major as `_scan` returns them: each D_i is
        filled here, so nothing is copied, scanned or checked."""
        mats = []
        for i, (r, c, v) in enumerate(triples):
            mats.append(np.zeros((dims[i + 1], dims[i])))
            mats[-1][r, c] = v
            mats[-1].setflags(write=False)
        M = object.__new__(cls)
        M.__dict__.update(dims=dims, matrices=tuple(mats), _incidence=tuple(
            _incidence(*t, D.shape) for t, D in zip(triples, mats)))
        return M

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def matrix(self, i: int) -> np.ndarray:
        """D_i, for 0 <= i < top."""
        if not 0 <= i < len(self.matrices):
            raise BadDimension(f"no D_{i}: the complex has D_0..D_{len(self.matrices) - 1}")
        return self.matrices[i]


@dataclass(frozen=True)
class Contraction:
    """Degree-lowering maps h^i: R^{dims[i]} -> R^{dims[i-1]}, i >= 1."""

    maps: dict[int, np.ndarray] = field(repr=False)


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
    return MatrixComplex._from_triples(tuple(dims), triples)


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


def _products(by_col, D: np.ndarray, j: np.ndarray, c: np.ndarray, v: np.ndarray):
    """(row, column, value) of each product of a nonzero D[r, j] and a nonzero
    h[j, c] = v in D @ h, with D grouped by column.  A non-finite h[j, c] also
    meets the zeros of column j, as in D @ h (0 * inf is NaN); its other
    products then count twice, which changes no IEEE sum."""
    ptr, rows, vals, _ = by_col
    n = ptr[j + 1] - ptr[j]
    at = np.arange(n.sum()) + np.repeat(ptr[j] - np.cumsum(n) + n, n)
    out = [rows[at], np.repeat(c, n), vals[at] * np.repeat(v, n)]
    if (bad := ~np.isfinite(v)).any():
        m = D.shape[0]
        full = (np.repeat(np.arange(m), bad.sum()), np.tile(c[bad], m),
                (D[:, j[bad]] * v[bad]).ravel())
        out = [np.concatenate(p) for p in zip(out, full)]
    return out


def _defect(M: MatrixComplex, nz: dict, i: int):
    """(max or -1.0 if empty, size, first (row, column) of the max) of |D_{i-1} h^i + h^{i+1}
    D_i - 1| (no h^{i+1} term at the top), summed from the nonzero products over M's incidence
    from nz[i] = `_scan(h^i)`; reduced here, so callers hold one dense n x n array at a time."""
    n = M.dims[i]
    terms = [_products(M._incidence[i - 1][1], M.matrix(i - 1), *nz[i]),
             (np.arange(n), np.arange(n), -np.ones(n))]
    if i + 1 in nz:  # h' D = (D^T h'^T)^T, and D^T by column is D by row
        a, r, v = nz[i + 1]  # row-major, so each bin (a, b) sums its products in ascending r
        b, a, v = _products(M._incidence[i][0], M.matrix(i).T, r, a, v)
        terms.append((a, b, v))
    r, c, v = map(np.concatenate, zip(*terms))
    a = np.bincount(r * n + c, v, minlength=n * n)
    np.abs(a, out=a)
    return a.max(initial=-1.0), a.size, divmod(int(a.argmax()), n) if a.size else None


def _coreduce(M: MatrixComplex):
    """eta^i per degree i >= 1 and the critical cells, from the matching."""
    facets = [[[]] * M.dims[0]] + [by_row[3] for by_row, _ in M._incidence]
    cofaces = [by_col[3] for _, by_col in M._incidence] + [[[]] * M.dims[-1]]
    alive, critical = [[True] * d for d in M.dims], [[] for _ in M.dims]
    lower = [[False] * d for d in M.dims]  # paired with a cell one degree up
    eta = {i: np.zeros((M.dims[i - 1], M.dims[i])) for i in range(1, len(M.dims))}
    cells = [(i, c) for i, d in enumerate(M.dims) for c in range(d)]
    queue = deque(cells)

    def remove(i, c):  # its cofaces may now have one unpaired facet
        alive[i][c] = False
        queue.extend((i + 1, r) for r in cofaces[i][c])

    for low in cells:
        while queue:
            i, u = queue.popleft()
            live = [j for j in facets[i][u] if alive[i - 1][j]]
            if alive[i][u] and len(live) == 1:  # pair u with l, its one unpaired facet
                l, D, E = live[0], M.matrices[i - 1], eta[i]
                row = E[l]  # 0 so far; (e_u - D[u] E) / D[u, l], where only the
                for f in facets[i][u]:  # rows of facets paired as lower cells are not 0
                    if lower[i - 1][f]:
                        row -= D[u, f] * E[f]
                row[u] += 1.0
                row /= D[u, l]
                lower[i - 1][l] = True
                remove(i, u)
                remove(i - 1, l)
        if alive[low[0]][low[1]]:  # the lowest cell left, so its facets are gone
            critical[low[0]].append(low[1])
            remove(*low)
    return eta, critical


def contract(M: MatrixComplex) -> Contraction | ContractionFailure:
    """h^i for i = top..1 from the matching, so that D h + h D = 1 in degrees
    >= 1.  Fails (with the degree and residual) on the first degree, from the
    top, where a residual exceeds STEP_TOL: where the right-inverse equation
    d eta = 1 is unsolvable on the cycles, i.e. where cohomology is present."""
    h, K = _coreduce(M)
    nz = {}
    for i, D in reversed([*enumerate(M.matrices, 1)]):  # D = D_{i-1}
        if K[i] and K[i - 1]:  # the Morse correction (see the module docstring)
            f = np.eye(M.dims[i])[K[i]] - D[K[i]] @ h[i]
            g = np.eye(M.dims[i - 1])[:, K[i - 1]] - h[i] @ D[:, K[i - 1]]
            h[i] = h[i] + g @ np.linalg.pinv(f @ D @ g, rcond=RANK_RTOL) @ f
        nz[i] = _scan(h[i])
        residual = float(max(_defect(M, nz, i)[0], 0.0))  # a NaN max stays NaN
        if not residual <= STEP_TOL:  # NaN fails too
            return ContractionFailure(degree=i, residual=residual)
    return Contraction(h)


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
    if missing := [i for i in range(1, M.top + 1) if i not in h.maps]:
        raise BadDegree(f"the contraction has no h^i for degrees {missing}")
    if wrong := {i: m.shape for i, m in h.maps.items()  # products would miss extra rows
                 if not 0 < i <= M.top or m.shape != (M.dims[i - 1], M.dims[i])}:
        raise BadDimension(f"shapes {wrong} are not (dims[i - 1], dims[i]) for dims {M.dims}")
    nz = {i: _scan(m) for i, m in h.maps.items()}
    peaks = {i: _defect(M, nz, i) for i in range(1, M.top + 1)}
    residuals = {i: float(max(m, 0.0)) for i, (m, _, _) in peaks.items()}  # a NaN m stays
    checked = sum(size for _, size, _ in peaks.values())
    i = 1 + int(np.argmax([m for m, _, _ in peaks.values()]))  # NaN wins
    worst = (i, *peaks[i][2]) if peaks[i][1] else None
    return ContractionReport(residuals, residuals[i], checked > 0 and residuals[i] <= tol,
                             checked, worst)
