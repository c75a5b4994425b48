"""Finite metric simplicial complexes.

A complex stores embedded vertex coordinates and, per dimension, the ordered
set of simplex keys (strictly increasing vertex-id tuples).  Complexes are
immutable after construction; every operation returns a new complex.

Incidence is built once, with the complex, and other modules only look it
up.  Both maps have one key per simplex; on bounded geometry their entries
have bounded length.  `cofaces[sigma]` holds one pair (tau, (-1)**i), in
ascending tau, for each (k+1)-simplex tau = (v_0 < ... < v_{k+1}) with
sigma = tau minus v_i: the coboundary sign, (dc)(tau) = sum_i (-1)^i
c(tau \\ v_i).  `carriers[sigma]` holds the maximal simplices containing
sigma (sigma itself if it is maximal), in ascending key order.

Geometry (`volume`, `covector_gram`) is built per dimension on first use, by
one stacked pass over the Gram matrices of its simplices (batched det, inverse
and minors), and kept in a private memo, which takes no part in equality or repr.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimension, DegenerateSimplex, DuplicateVertex, MissingSimplex, MissingVertex

SimplexKey = tuple[int, ...]


@dataclass(frozen=True)
class MetricComplex:
    """Face-closed simplicial complex with embedded vertex coordinates and
    its incidence (`cofaces`, `carriers`; see the module docstring)."""

    vertices: dict[int, tuple[float, ...]]
    simplices: dict[int, tuple[SimplexKey, ...]]  # dim -> sorted keys
    cofaces: dict[SimplexKey, tuple[tuple[SimplexKey, int], ...]]
    carriers: dict[SimplexKey, tuple[SimplexKey, ...]]
    dim: int
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def has_simplex(self, key: SimplexKey) -> bool:
        # `cofaces` has one entry for every simplex of the complex
        return key in self.cofaces

    def simplices_of_dim(self, k: int) -> tuple[SimplexKey, ...]:
        return self.simplices.get(k, ())

    def coords(self, key: SimplexKey) -> np.ndarray:
        """Vertex coordinates of a simplex, one row per vertex."""
        return np.array([self.vertices[v] for v in key], dtype=float)

    def maximal_simplices(self) -> tuple[SimplexKey, ...]:
        """Simplices that are not a proper face of any other simplex, by
        dimension and then by key."""
        return tuple(key for key, cof in self.cofaces.items() if not cof)

    def simplex_count(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def volume(self, key: SimplexKey) -> float:
        """Riemannian k-volume from the Gram determinant of edge vectors (0.0 if not positive)."""
        vol, _, (i,) = self._geometry((key,))
        return float(vol[i])

    def covector_gram(self, key: SimplexKey, k: int) -> np.ndarray:
        """Inner products <dt_I, dt_J> of a simplex's coordinate k-covectors, over the
        ascending k-subsets I, J of 1..dim in `itertools.combinations` order: the minors
        det(G^-1)[I, J] of its edge vectors' Gram matrix G.  Read-only: callers share it."""
        _, grams, (i,) = self._geometry((key,), k)
        return grams[i]

    def _geometry(self, keys, k: int = 0):
        """(volumes, covector Grams of degree k, the row of each key): read-only
        arrays over all simplices of the dimension the keys share."""
        if missing := [s for s in keys if s not in self.cofaces]:
            raise MissingSimplex(f"{missing[0]} is not a simplex of the complex")
        m = len(keys[0]) - 1
        if not 0 <= k <= m:
            raise BadDimension(f"no {k}-covectors on a {m}-simplex")
        if m not in self._memo:
            sims = self.simplices_of_dim(m)
            pts = np.array([[self.vertices[v] for v in s] for s in sims], dtype=float)
            edges = pts[:, 1:] - pts[:, :1]
            gram = edges @ edges.transpose(0, 2, 1)
            det = np.linalg.det(gram)  # 1.0 for a vertex
            vol = np.sqrt(np.where(det > 0.0, det, 0.0)) / math.factorial(m)
            ginv = np.zeros_like(gram)  # a simplex of zero volume has no inverse metric
            ginv[vol > 0.0] = np.linalg.inv(gram[vol > 0.0])
            vol.setflags(write=False)
            self._memo[m] = ({s: i for i, s in enumerate(sims)}, vol, ginv, {})
        index, vol, ginv, grams = self._memo[m]
        rows = [index[s] for s in keys]
        if k and not vol[rows].all():
            raise DegenerateSimplex(f"{keys[int(np.argmin(vol[rows]))]} has zero volume")
        if k not in grams:
            sub = np.array([*itertools.combinations(range(m), k)], dtype=int)
            grams[k] = np.linalg.det(ginv[:, sub[:, None, :, None], sub[None, :, None, :]])
            grams[k].setflags(write=False)
        return vol, grams[k], rows


@dataclass(frozen=True)
class GeometryReport:
    """Outcome of a bounded-geometry check."""

    max_vertex_degree: int
    min_edge_length: float
    max_edge_length: float
    passes: bool
    violations: tuple[tuple[SimplexKey, str], ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class PiSequence:
    """Exponent sequence p_0..p_n with the Sobolev step condition."""

    exponents: tuple[float, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(p) for p in self.exponents))

    def __getitem__(self, i: int) -> float:
        return self.exponents[i]

    def is_valid(self) -> bool:
        ps = self.exponents
        if len(ps) != self.n + 1 or self.n < 0:
            return False
        if any(not (1.0 < p < math.inf) for p in ps):
            return False
        return all(  # vacuous for n = 0
            1.0 / ps[i + 1] - 1.0 / ps[i] <= 1.0 / self.n + 1e-15
            for i in range(self.n)
        )

    def is_non_increasing(self) -> bool:
        ps = self.exponents
        return all(ps[i + 1] <= ps[i] for i in range(len(ps) - 1))


def _faces(key: SimplexKey):
    for r in range(1, len(key) + 1):
        yield from itertools.combinations(key, r)


def _close_and_index(
    vertices: dict[int, tuple[float, ...]], tops: list[SimplexKey]
) -> MetricComplex:
    """The face closure of tops, with its signed cofaces and carriers."""
    by_dim: dict[int, set[SimplexKey]] = {}
    for t in tops:
        for f in _faces(t):
            by_dim.setdefault(len(f) - 1, set()).add(f)
    for v in vertices:
        by_dim.setdefault(0, set()).add((v,))
    simplices = {k: tuple(sorted(keys)) for k, keys in sorted(by_dim.items())}
    # keyed in (dimension, key) order, which maximal_simplices relies on
    cofaces: dict[SimplexKey, list[tuple[SimplexKey, int]]] = {
        key: [] for keys in simplices.values() for key in keys
    }
    for k, keys in simplices.items():
        if k == 0:
            continue
        # combinations(tau, k) drops tau[k], then tau[k - 1], ..., then tau[0]
        signs = [(-1) ** i for i in range(k, -1, -1)]
        for tau in keys:
            for face, sign in zip(itertools.combinations(tau, k), signs):
                cofaces[face].append((tau, sign))
    carriers: dict[SimplexKey, list[SimplexKey]] = {key: [] for key in cofaces}
    for T in sorted(key for key, cof in cofaces.items() if not cof):
        for f in _faces(T):
            carriers[f].append(T)
    return MetricComplex(
        vertices,
        simplices,
        {key: tuple(cof) for key, cof in cofaces.items()},
        {key: tuple(car) for key, car in carriers.items()},
        max(simplices) if simplices else 0,
    )


def build_complex(
    vertices: dict[int, tuple[float, ...]],
    top_simplices: list[tuple[int, ...]],
) -> MetricComplex:
    """Build a face-closed metric complex from vertices and top simplices."""
    vertices = {int(v): tuple(float(c) for c in xs) for v, xs in vertices.items()}
    lengths = {len(xs) for xs in vertices.values()}
    if len(lengths) > 1:
        raise ValueError("vertex coordinate vectors must share one length")
    tops: list[SimplexKey] = []
    for t in top_simplices:
        if len(set(t)) != len(t):
            raise DegenerateSimplex(f"repeated vertex id in {t}")
        for v in t:
            if v not in vertices:
                raise MissingVertex(f"unknown vertex id {v}")
        tops.append(tuple(sorted(int(v) for v in t)))
    return _close_and_index(vertices, tops)


def _is_connected(K: MetricComplex) -> bool:
    seen = set(stack := list(K.vertices)[:1])
    while stack:
        new = {w for edge, _sign in K.cofaces[(stack.pop(),)] for w in edge} - seen
        seen |= new
        stack.extend(new)
    return len(seen) == len(K.vertices)


def validate_bounded_geometry(K: MetricComplex, L: float, N: int) -> GeometryReport:
    """Check the star bound N, the edge-length window [1/L, L], and connectivity."""
    if L < 1 or N < 1:
        raise ValueError("require L >= 1 and N >= 1")
    edges = K.simplices_of_dim(1)
    lengths = K._geometry(edges)[0].tolist() if edges else []  # in edges order
    violations = [(e, f"edge length {ell:.6g} outside [{1/L:.6g}, {L:.6g}]")
                  for e, ell in zip(edges, lengths) if not (1.0 / L - 1e-12 <= ell <= L + 1e-12)]
    degrees = {v: len(K.cofaces[(v,)]) for v in K.vertices}
    violations += [((v,), f"vertex degree {d} exceeds {N}")
                   for v, d in sorted(degrees.items()) if d > N]
    if not _is_connected(K):
        violations.append(((), "complex is disconnected"))
    return GeometryReport(
        max_vertex_degree=max(degrees.values(), default=0),
        min_edge_length=min(lengths, default=math.inf),
        max_edge_length=max(lengths, default=0.0),
        passes=not violations,
        violations=tuple(violations),
    )


def skeleton(K: MetricComplex, m: int) -> MetricComplex:
    """The subcomplex of all simplices of dimension <= m."""
    if not (0 <= m <= K.dim):
        raise BadDimension(f"skeleton dimension {m} outside [0, {K.dim}]")
    tops = [key for k in range(m + 1) for key in K.simplices_of_dim(k)]
    return build_complex(dict(K.vertices), tops)


def star(K: MetricComplex, v: int) -> MetricComplex:
    """Closed star: all simplices containing v, plus their faces."""
    if v not in K.vertices:
        raise MissingVertex(f"unknown vertex id {v}")
    tops = K.carriers[(v,)]
    return build_complex({w: K.vertices[w] for key in tops for w in key}, tops)


def barycentric_subdivide(K: MetricComplex) -> MetricComplex:
    """First barycentric subdivision; new vertices at arithmetic barycenters.

    Original vertex ids are kept for 0-simplices; each simplex of dimension
    >= 1 receives a fresh id, assigned in (dimension, key) order.
    """
    next_id = max(K.vertices, default=-1) + 1
    bary_id: dict[SimplexKey, int] = {}
    new_vertices = dict(K.vertices)
    for k in sorted(K.simplices):
        for key in K.simplices[k]:
            if k == 0:
                bary_id[key] = key[0]
            else:
                bary_id[key] = next_id
                pts = K.coords(key)
                new_vertices[next_id] = tuple(pts.mean(axis=0))
                next_id += 1
    tops = []
    for top in K.maximal_simplices():
        m = len(top) - 1
        if m == 0:
            tops.append((bary_id[top],))
            continue
        for perm in itertools.permutations(top):
            flag = [tuple(sorted(perm[: r + 1])) for r in range(m + 1)]
            tops.append(tuple(sorted(bary_id[f] for f in flag)))
    return build_complex(new_vertices, tops)


def ray_complex(n: int, M: int) -> MetricComplex:
    """Truncated ray: a path of M unit edges (n=1) or a strip of 2M unit
    right triangles (n=2)."""
    if n not in (1, 2):
        raise BadDimension("ray_complex supports n in {1, 2}")
    if M < 1:
        raise ValueError("M >= 1 required")
    if n == 1:
        vertices = {i: (float(i),) for i in range(M + 1)}
        tops = [(i, i + 1) for i in range(M)]
        return build_complex(vertices, tops)
    vertices = {}
    for j in range(M + 1):
        vertices[2 * j] = (float(j), 0.0)
        vertices[2 * j + 1] = (float(j), 1.0)
    tops = []
    for j in range(M):
        a, b = 2 * j, 2 * j + 1
        c, d = 2 * j + 2, 2 * j + 3
        tops.append((a, c, d))
        tops.append((a, b, d))
    return build_complex(vertices, tops)


def cube_boundary_complex(n: int) -> MetricComplex:
    """The boundary of the unit cube I^n as a complex: two points for n=1,
    the four unit edges of the square for n=2."""
    if n == 1:
        return build_complex({0: (0.0,), 1: (1.0,)}, [(0,), (1,)])
    if n == 2:
        vertices = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}
        return build_complex(vertices, [(0, 1), (1, 2), (2, 3), (0, 3)])
    raise BadDimension("cube boundary supported for n in {1, 2}")


def write_complex(K: MetricComplex) -> str:
    """Line-oriented text form: `dim`, `vertices`, `simplices` sections."""
    lines = [f"dim {K.dim}", "vertices"]
    for v in sorted(K.vertices):
        coords = " ".join(repr(c) for c in K.vertices[v])
        lines.append(f"{v} {coords}".rstrip())
    lines.append("simplices")
    for key in K.maximal_simplices():
        lines.append(" ".join(str(v) for v in key))
    return "\n".join(lines) + "\n"


def read_complex(text: str) -> MetricComplex:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("missing `dim` header")
    try:
        idx_v = lines.index("vertices")
        idx_s = lines.index("simplices")
    except ValueError as exc:
        raise ValueError("missing vertices/simplices section") from exc
    vertices: dict[int, tuple[float, ...]] = {}
    for ln in lines[idx_v + 1 : idx_s]:
        parts = ln.split()
        v = int(parts[0])
        if v in vertices:
            raise DuplicateVertex(f"vertex id {v} listed twice")
        vertices[v] = tuple(float(x) for x in parts[1:])
        if not all(map(math.isfinite, vertices[v])):
            raise DegenerateSimplex(f"vertex {v} has a non-finite coordinate")
    tops = [tuple(int(x) for x in ln.split()) for ln in lines[idx_s + 1 :]]
    K = build_complex(vertices, tops)
    for T in K.maximal_simplices():  # the listed simplices not inside another
        if K.volume(T) == 0.0:
            raise DegenerateSimplex(f"simplex {T} has zero volume")
    dim = int(lines[0].split()[1])
    if dim != K.dim:
        raise BadDimension(f"header says dim {dim}, but the simplices span dim {K.dim}")
    return K
