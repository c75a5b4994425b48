"""Sparse simplicial cochains, the coboundary, and counting-measure norms.

Sign convention: the coboundary of a k-cochain c at a (k+1)-simplex
tau = (v_0 < ... < v_{k+1}) is the alternating sum over removed vertices,
(dc)(tau) = sum_i (-1)^i c(tau \\ v_i).  This matches the orientation
induced by ascending vertex order, which is also the orientation used when
integrating forms over simplices.  The signs come from the complex's face
table (see `lpiforms.complexes`): column i of the (k+1)-simplices' table is
the row of tau \\ v_i, so dc is k + 2 signed gathers of c's value vector,
summed in descending i, the order in which the faces of tau ascend.

A cochain keeps its value vector over the k-rows, built on first read or
handed over by `_from_vector`, so `values` must not be changed after
construction; `coboundary` and `derham.whitney` read the vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import MetricComplex, PiSequence, SimplexKey
from .errors import BadCarrier, BadDimension, BadExponent, DuplicateSimplex, MissingSimplex


@dataclass(frozen=True)
class Cochain:
    """Degree-k real-valued function on k-simplices; absent keys are 0.
    Every key must be a k-simplex of the complex, in ascending vertex order."""

    degree: int
    values: dict[SimplexKey, float]
    complex: MetricComplex = field(repr=False)
    _vec: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for key in self.values:
            if len(key) != self.degree + 1:
                raise BadDimension(f"key {key} is not a {self.degree}-simplex")
            if not self.complex.has_simplex(key):
                raise MissingSimplex(f"{key} not in complex")
        clean = {k: float(v) for k, v in self.values.items() if v != 0.0}
        object.__setattr__(self, "values", clean)

    @classmethod
    def _from_vector(cls, K: MetricComplex, k: int, vec: np.ndarray) -> "Cochain":
        """The cochain with value vec[j] on the j-th k-simplex of K, zeros
        dropped; the keys are K's own, so none is checked.  It keeps vec,
        made read-only, as its `_vector`."""
        keep = vec != 0.0
        vec.setflags(write=False)
        c = object.__new__(cls)
        c.__dict__.update(degree=k, complex=K, _vec=vec, values=dict(zip(
            itertools.compress(K.simplices_of_dim(k), keep.tolist()), vec[keep].tolist())))
        return c

    def _vector(self) -> np.ndarray:
        """The values over the k-rows of the complex; read-only."""
        if self._vec is None:
            vec = np.zeros(len(self.complex.simplices_of_dim(self.degree)))
            vec[self.complex._rows(self.degree, self.values)] = [*self.values.values()]
            vec.setflags(write=False)
            object.__setattr__(self, "_vec", vec)
        return self._vec

    def __call__(self, key: SimplexKey) -> float:
        return self.values.get(tuple(key), 0.0)

    def __add__(self, other: "Cochain") -> "Cochain":
        if other.degree != self.degree:
            raise BadDimension("degree mismatch in cochain sum")
        if other.complex != self.complex:
            raise BadCarrier("complex mismatch in cochain sum")
        vals = dict(self.values)
        for k, v in other.values.items():
            vals[k] = vals.get(k, 0.0) + v
        return Cochain(self.degree, vals, self.complex)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1.0)

    def scale(self, a: float) -> "Cochain":
        return Cochain(self.degree, {k: a * v for k, v in self.values.items()}, self.complex)

    def __rmul__(self, a: float) -> "Cochain":
        return self.scale(a)


def indicator(K: MetricComplex, sigma: SimplexKey) -> Cochain:
    """The characteristic cochain of a single simplex."""
    sigma = tuple(sigma)
    return Cochain(len(sigma) - 1, {sigma: 1.0}, K)


def _coboundary(K: MetricComplex, k: int, vec: np.ndarray) -> np.ndarray:
    """dc over the rows of the (k+1)-simplices, for c given over the k-rows."""
    faces = vec[K._tables[1][k + 1]]  # column i: c(tau \ v_i)
    out = (-1.0) ** (k + 1) * faces[:, k + 1]
    for i in range(k, -1, -1):
        (np.subtract if i % 2 else np.add)(out, faces[:, i], out=out)
    return out


def coboundary(c: Cochain) -> Cochain:
    """Alternating-sum coboundary; degree k -> k+1."""
    K, k = c.complex, c.degree
    if k >= K.dim:  # also the empty complex, of dimension 0
        return Cochain(k + 1, {}, K)
    return Cochain._from_vector(K, k + 1, _coboundary(K, k, c._vector()))


def lp_norm(c: Cochain, p: float) -> float:
    """Counting-measure l_p norm over the k-simplices, scaled so |v|^p stays in range."""
    if not (math.isfinite(p) and p >= 1):
        raise BadExponent(f"p = {p} is not a finite number >= 1")
    if not c.values:
        return 0.0
    a = np.abs(np.fromiter(c.values.values(), float, len(c.values)))
    scale = math.ldexp(1.0, math.frexp(a.max())[1])
    return float(np.sum((a / scale) ** p) ** (1.0 / p) * scale)


def pi_norm(c: Cochain, pi: PiSequence) -> float:
    """Sobolev norm ||c||_{p_k} + ||dc||_{p_{k+1}}."""
    k = c.degree
    total = lp_norm(c, pi[k])
    if k < c.complex.dim:
        total += lp_norm(coboundary(c), pi[k + 1])
    return total


def write_cochain(c: Cochain) -> str:
    lines = [f"degree {c.degree}"]
    for key in sorted(c.values):
        lines.append(" ".join(str(v) for v in key) + f" {c.values[key]!r}")
    return "\n".join(lines) + "\n"


def read_cochain(text: str, K: MetricComplex) -> Cochain:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("degree "):
        raise ValueError("missing `degree` header")
    k = int(lines[0].split()[1])
    values: dict[SimplexKey, float] = {}
    for ln in lines[1:]:
        parts = ln.split()
        key = tuple(int(x) for x in parts[:-1])
        if key in values:
            raise DuplicateSimplex(f"simplex {key} listed twice")
        values[key] = float(parts[-1])
        if not math.isfinite(values[key]):
            raise ValueError(f"simplex {key} has the non-finite value {parts[-1]}")
    return Cochain(k, values, K)
