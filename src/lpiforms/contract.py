"""Finite-dimensional chain-complex utilities: cohomology dimensions and
an inductively constructed contracting homotopy on acyclic complexes.

The contraction follows the descending induction

    h^n = eta^n,   alpha^{i-1} = 1 - h^i d^{i-1},   h^{i-1} = eta^{i-1} alpha^{i-1}

where eta^i is a right inverse of d^{i-1} on the cycles Z^i, realized
here as the Moore-Penrose pseudo-inverse.  At each step the closure
property d^{i-1} alpha^{i-1} = 0 is asserted; on a non-acyclic complex
the construction fails at the first degree carrying cohomology, and the
failure report records that degree and the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .complexes import MetricComplex
from .errors import BadDimension

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
        """D_i, a zero matrix outside the stored range."""
        if 0 <= i < len(self.matrices):
            return self.matrices[i]
        rows = self.dims[i + 1] if 0 <= i + 1 <= self.top else 0
        cols = self.dims[i] if 0 <= i <= self.top else 0
        return np.zeros((rows, cols))

    def dump(self) -> str:
        lines = []
        for i, D in enumerate(self.matrices):
            lines.append(f"D {i} {D.shape[0]} {D.shape[1]}")
            lines.extend(" ".join(repr(float(x)) for x in row) for row in D)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Contraction:
    """Degree-lowering maps h^i: R^{dims[i]} -> R^{dims[i-1]}, i >= 1."""

    maps: dict[int, np.ndarray] = field(repr=False)

    def matrix(self, i: int) -> np.ndarray | None:
        return self.maps.get(i)


@dataclass(frozen=True)
class ContractionFailure:
    degree: int
    residual: float


def assemble(K: MetricComplex, augmented: bool = False) -> MatrixComplex:
    """Matrix form of the cochain complex in canonical (sorted) simplex
    order.  With augmented=True a column of ones R -> C^0 is prepended,
    absorbing the H^0 of a connected complex into an acyclic complex."""
    if K.simplex_count() > SIZE_LIMIT:
        raise ValueError(
            f"complex has {K.simplex_count()} simplices; dense limit is {SIZE_LIMIT}"
        )
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
        ones = np.ones((dims[0], 1)) if dims else np.zeros((0, 1))
        dims = [1] + dims
        mats = [ones] + mats
    return MatrixComplex(tuple(dims), tuple(mats))


def _rank(D: np.ndarray) -> int:
    if D.size == 0:
        return 0
    s = np.linalg.svd(D, compute_uv=False)
    return int(np.sum(s > RANK_RTOL * s[0])) if s.size and s[0] > 0 else 0


def _exact_rank(D: np.ndarray) -> int:
    """Rank by Gaussian elimination over the rationals; the entries must be
    (near-)integers, as coboundary matrices are."""
    if D.size == 0:
        return 0
    rows = [[Fraction(x).limit_denominator(10**6) for x in row] for row in D]
    r = 0  # the rank so far, and the next pivot row
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _cohomology(M: MatrixComplex, rank) -> list[int]:
    """dim ker D_i - rank D_{i-1} per degree, with the given rank function."""
    out = []
    for i in range(M.top + 1):
        ker = M.dims[i] - (rank(M.matrix(i)) if i < M.top else 0)
        im = rank(M.matrix(i - 1)) if i > 0 else 0
        out.append(ker - im)
    return out


def cohomology_dims(M: MatrixComplex) -> list[int]:
    """dim ker D_i - rank D_{i-1} per degree, by SVD rank."""
    return _cohomology(M, _rank)


def rational_cohomology_dims(M: MatrixComplex) -> list[int]:
    """Exact oracle: the same dimensions with ranks over the rationals."""
    return _cohomology(M, _exact_rank)


def contract(M: MatrixComplex) -> Contraction | ContractionFailure:
    """Descending induction producing h with D h + h D = 1 in degrees >= 1.
    Fails (with the degree and residual) on the first degree where a
    residual exceeds STEP_TOL: where the right-inverse equation d eta = 1
    is unsolvable on the cycles, i.e. where cohomology is present."""
    n = M.top
    h: dict[int, np.ndarray] = {}
    alpha_prev = np.eye(M.dims[n]) if M.dims else np.zeros((0, 0))
    for i in range(n, 0, -1):
        Dm = M.matrix(i - 1)  # degree i-1 -> i
        eta = np.linalg.pinv(Dm, rcond=RANK_RTOL)
        h_i = eta @ alpha_prev
        alpha = np.eye(M.dims[i - 1]) - h_i @ Dm
        if i == n:
            resid_mat = Dm @ h_i - np.eye(M.dims[i])
        else:
            resid_mat = Dm @ h_i + h[i + 1] @ M.matrix(i) - np.eye(M.dims[i])
        residual = float(np.abs(resid_mat).max()) if resid_mat.size else 0.0
        if residual > STEP_TOL:
            return ContractionFailure(degree=i, residual=residual)
        closure = float(np.abs(Dm @ alpha).max()) if Dm.size else 0.0
        if closure > STEP_TOL:
            return ContractionFailure(degree=i - 1, residual=closure)
        h[i] = h_i
        alpha_prev = alpha
    return Contraction(h)


@dataclass(frozen=True)
class ContractionReport:
    residuals: dict[int, float]
    max_residual: float
    passed: bool


def verify_contraction(
    M: MatrixComplex, h: Contraction, tol: float = 1e-8
) -> ContractionReport:
    """Entrywise residual of D_{i-1} h^i + h^{i+1} D_i - 1 per degree >= 1."""
    residuals = {}
    for i in range(1, M.top + 1):
        hi = h.matrix(i)
        if hi is None:
            continue
        acc = M.matrix(i - 1) @ hi - np.eye(M.dims[i])
        hnext = h.matrix(i + 1)
        if hnext is not None:
            acc = acc + hnext @ M.matrix(i)
        residuals[i] = float(np.abs(acc).max()) if acc.size else 0.0
    worst = max(residuals.values(), default=0.0)
    return ContractionReport(residuals, worst, worst <= tol)
