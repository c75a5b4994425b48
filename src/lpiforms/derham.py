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

`derham_map` and `verify_stokes` integrate the pieces of one dimension at
once, as their dense coefficients times the term keys' face tables, and
scatter the values to face rows.  A shared face takes the value of its first
maximal carrier with a piece, in key order across dimensions, as
`PolyForm.trace_on` does: the entries are sorted by face row and then by
their carrier's place among the maximal simplices, and each face keeps its
first.  A simplex outside the form's complex gets 0.
`verify_stokes` takes d omega's coefficients from `polyform._unit_d`, so it
builds no `PolyForm.d`; a piece whose d is zero carries no face there.

`verify_split` uses that both maps are linear: it runs the pipeline once per
drawn simplex, caches that indicator's image as a sparse column, and builds
each sample's image as the sum of its columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cochains import Cochain, _coboundary
from .complexes import MetricComplex, SimplexKey
from .errors import BadDegree, BadDimension, DegenerateSimplex
from .polyform import (PolyForm, Terms, _by_dimension, _dense, _integrals, _unit_d, pullback,
                       selection)


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


def _carriers(omega: PolyForm):
    """Per dimension m of the pieces on maximal simplices of omega's complex:
    m, their rows in key order, and `polyform._dense` of their pieces."""
    L = omega.complex
    for group in _by_dimension(omega.pieces):
        m = len(group[0]) - 1
        rows = L._rows(m, group)
        rows.sort()
        if (rows := rows[L._places(m)[rows] >= 0]).size:  # only maximal simplices carry faces
            tops = map(L.simplices_of_dim(m).__getitem__, rows.tolist())
            yield m, rows, *_dense([*map(omega.pieces.__getitem__, tops)])


def _first_carrier(L: MetricComplex, K: MetricComplex, k: int, parts: list,
                   weighted: bool) -> np.ndarray:
    """The k-face integrals of parts (m, rows of maximal m-simplices of L,
    values with one column per k-face in combinations order, k! times the
    metric-free integral), each face taking the value of its first carrier
    in key order, as a vector over the k-simplices of K."""
    out = np.zeros(len(K.simplices_of_dim(k)))
    if not (parts := [(L._face_rows(m, k)[rows], L._places(m)[rows], v)
                      for m, rows, v in parts if m >= k]):
        return out
    faces = np.concatenate([f.ravel() for f, _, _ in parts])
    places = np.concatenate([p.repeat(f.shape[1]) for f, p, _ in parts])
    vals = np.concatenate([v.ravel() for *_, v in parts])
    order = np.lexsort((places, faces))
    faces, keep = faces[order], np.ones(len(faces), dtype=bool)
    keep[1:] = faces[1:] != faces[:-1]
    rows, vals = faces[keep], vals[order[keep]]
    if weighted:  # the volumes from _geometry span every k-simplex
        vals = vals * L._geometry(L.simplices_of_dim(k)[:1])[0][rows]
    else:
        vals = vals / math.factorial(k)
    if K is not L:
        rows = K._rows(k, list(map(L.simplices_of_dim(k).__getitem__, rows.tolist())))
        rows, vals = rows[rows >= 0], vals[rows >= 0]
    out[rows] = vals
    return out


def derham_map(
    omega: PolyForm, K: MetricComplex, k: int, weighted: bool = False
) -> Cochain:
    """Integrate a k-form over every k-simplex.  weighted=False is the
    metric-free integral (Stokes-exact); weighted=True applies the
    volume-weighted convention."""
    if k != omega.degree:
        raise BadDimension(f"cannot integrate a {omega.degree}-form over {k}-simplices")
    parts = [(m, rows, _integrals(union, dense)) for m, rows, union, dense in _carriers(omega)]
    return Cochain._from_vector(K, k, _first_carrier(omega.complex, K, k, parts, weighted))


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
                columns[s] = (K._rows(k, image), np.array([*image.values()], dtype=float))
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
    plain, exact = [], []
    for m, rows, union, dense in _carriers(omega):
        plain.append((m, rows, _integrals(union, dense)))
        images, d = _dense([dict(_unit_d(key, m)) for key in union])  # d omega's term keys
        if (live := ((coefficients := dense @ d) != 0.0).any(axis=1)).any():
            exact.append((m, rows[live], _integrals(images, coefficients[live])))
    lhs = _first_carrier(omega.complex, K, k + 1, exact, False)
    rhs = _coboundary(K, k, _first_carrier(omega.complex, K, k, plain, False))
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
