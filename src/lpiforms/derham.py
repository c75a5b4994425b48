"""The integration (de Rham) map, the Whitney map, and their verification.

The Whitney form of a k-simplex sigma = (w_0 < ... < w_k) is

    W(chi_sigma) = k! * sum_i (-1)^i t_{w_i} dt_{w_0} ^ ... ^i ... ^ dt_{w_k}

on every maximal simplex T containing sigma.  It is the pullback of one
reference form, k! * sum_i (-1)^i l_i dl_0 ^ ... ^i ... ^ dl_k in the full
barycentric coordinates l_0..l_k of the reference k-simplex, along the
selection matrix that sends vertex i to w_i's position in T; that pullback
is cached per position tuple and added, times c(sigma), into T's piece.

With the metric-free form integral the composite I o W is the identity on
cochains, on any complex; with the volume-weighted integral I o W is
diagonal, with weight k! * vol(sigma) on sigma (sqrt(k+1)/sqrt(2^k) on a
regular unit k-simplex), which `verify_split` divides out.

`derham_map` walks the pieces of the form, not the simplices of K, through
`PolyForm.face_integrals`.  A shared face takes the value of the piece
`PolyForm.trace_on` picks; a simplex outside the form's complex gets 0.

`verify_split` uses that both maps are linear: it runs the pipeline once per
drawn simplex, caches that indicator's image as a sparse column, and builds
each sample's image as the sum of its columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cochains import Cochain, coboundary
from .complexes import MetricComplex, SimplexKey
from .errors import BadDegree, BadDimension, DegenerateSimplex
from .polyform import PolyForm, Terms, pullback, selection


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


def whitney(c: Cochain) -> PolyForm:
    """Piecewise-linear Whitney form of a cochain, linear in c."""
    K = c.complex
    pieces: dict[SimplexKey, Terms] = {}
    for sigma, val in c.values.items():
        for T in K.carriers[sigma]:
            piece = pieces.setdefault(T, {})
            for key, v in _local_whitney(tuple(map(T.index, sigma)), len(T) - 1):
                piece[key] = piece.get(key, 0.0) + val * v
    return PolyForm(c.degree, K, pieces)


def derham_map(
    omega: PolyForm, K: MetricComplex, k: int, weighted: bool = False
) -> Cochain:
    """Integrate a k-form over every k-simplex.  weighted=False is the
    metric-free integral (Stokes-exact); weighted=True applies the
    volume-weighted convention."""
    if k != omega.degree:
        raise BadDimension(f"cannot integrate a {omega.degree}-form over {k}-simplices")
    carriers = omega.complex.carriers
    # carriers ascend, so trace_on's piece for a face is the first in key
    # order that holds it; a piece off a maximal simplex is never a carrier
    values = omega.face_integrals([T for T in sorted(omega.pieces) if carriers.get(T) == (T,)],
                                  weighted)
    return Cochain(k, {s: v for s, v in values.items() if K.has_simplex(s)}, K)


def verify_split(K: MetricComplex, k: int, samples: int, seed: int = 0) -> SplitReport:
    """Check that volume-weighted integration is a retraction of the
    (rescaled) Whitney map on k-cochains, 0 <= k <= dim K (BadDegree if none).

    The Whitney image of each indicator is rescaled per simplex by its
    weighted integral, which is k! * vol(sigma) in closed form: the
    metric-free integral of W(chi_sigma) over sigma is 1 (I o W = id), and
    the weighted one is k! * vol times it.  So the identity holds exactly on
    non-regular complexes too.

    Each sample is a random cochain c on min(4, n) of the n k-simplices.
    Its image is the sum of c(sigma) times the cached image of sigma's
    rescaled indicator, computed by `whitney` and `derham_map` the first time
    sigma is drawn.  The sum goes into one length-n residual, from which c is
    subtracted; the rows the sample touched give its error and are zeroed
    again.  No n x n array is built.  A drawn simplex of zero volume has
    no rescaling and raises DegenerateSimplex.
    """
    if not 0 <= k <= K.dim:
        raise BadDimension(f"no {k}-cochains on a complex of dimension {K.dim}")
    if samples < 1:
        raise ValueError(f"samples = {samples}: at least 1 required")
    if not (sigmas := K.simplices_of_dim(k)):
        raise BadDegree(f"no {k}-simplices to draw cochains on")
    rng = np.random.default_rng(seed)
    row = {s: i for i, s in enumerate(sigmas)}
    columns: dict[SimplexKey, tuple[np.ndarray, np.ndarray]] = {}
    residual = np.zeros(len(sigmas))  # zero again after every sample
    max_err = 0.0
    for _ in range(samples):
        support = rng.choice(len(sigmas), size=min(4, len(sigmas)), replace=False)
        vals = [float(rng.normal()) for _ in support]
        touched = [support]  # a column may lack its own row if that value is 0
        for i, v in zip(support, vals):
            s = sigmas[i]
            if s not in columns:
                if not (vol := K.volume(s)):
                    raise DegenerateSimplex(f"{s} has zero volume, so W(chi) has no weighted rescaling")
                chi = Cochain(k, {s: 1.0 / (math.factorial(k) * vol)}, K)
                image = derham_map(whitney(chi), K, k, weighted=True).values
                columns[s] = (np.array([row[t] for t in image], dtype=int),
                              np.array([*image.values()], dtype=float))
            rows, col = columns[s]
            residual[rows] += v * col  # rows are distinct within a column
            touched.append(rows)
        residual[support] -= vals
        touched = np.concatenate(touched)
        max_err = max(max_err, float(np.abs(residual[touched]).max()))
        residual[touched] = 0.0
    return SplitReport(max_identity_error=max_err, sample_count=samples)


def verify_stokes(omega: PolyForm, K: MetricComplex) -> StokesReport:
    """Entrywise residual of I(d omega) - coboundary(I omega) over the
    (k+1)-simplices, with the metric-free integral."""
    k = omega.degree
    taus = K.simplices_of_dim(k + 1)
    if not taus:
        raise BadDegree(f"no {k + 1}-simplices to check a {k}-form against")
    lhs = derham_map(omega.d(), K, k + 1, weighted=False)
    rhs = coboundary(derham_map(omega, K, k, weighted=False))
    err = max(abs(lhs(s) - rhs(s)) for s in taus)
    return StokesReport(max_stokes_error=err, sample_count=len(taus))
