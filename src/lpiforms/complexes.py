"""Finite metric simplicial complexes.

A complex stores embedded vertex coordinates and, per dimension, the ordered
set of simplex keys (strictly increasing vertex-id tuples).  Complexes are
immutable after construction; every operation returns a new complex.

The build works on integer arrays, not one face tuple at a time.  Vertices
are ranked by id (V of them), and the k-simplices are one sorted array of
integer codes per dimension, from one sort of the codes of the tops'
(k+1)-vertex subsets.  A k-simplex's code is (the row of its first k
vertices among the (k-1)-simplices) * V + its last rank: codes stay below
N_{k-1} * V, in int64 at any size that fits in memory, and `searchsorted`
on them finds rows.

The complex keeps three private tables per dimension k, in key order,
outside equality and repr: the vertex ranks of each k-simplex, its face
table (the row of each k-simplex without each of its vertices), and its
place among the maximal simplices in key order (-1 if it is not maximal: no
face table names it).  Subdivisions, skeletons, prisms, volumes, `assemble`,
`coboundary`, `derham` (through `_face_rows`, the face tables composed) and
the connectivity check read them.  Keys map to rows through one dict per
dimension (`_rows`), which `has_simplex` reads too.  Geometry (`volume`,
`covector_gram`) is built per dimension on first use, in one stacked pass
over the Gram matrices (batched det, inverse and minors), kept in a private
memo and read by rows (`_geometry_at`).

The incidence maps are views on the tables, built on first read and kept,
with one key per simplex in (dimension, key) order.  `cofaces[sigma]` holds
one pair (tau, (-1)**i), in ascending tau, for each (k+1)-simplex
tau = (v_0 < ... < v_{k+1}) with sigma = tau minus v_i: the coboundary
sign, (dc)(tau) = sum_i (-1)^i c(tau \\ v_i).  `carriers[sigma]` holds the
maximal simplices containing sigma (sigma itself if it is maximal), in
ascending key order.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
    dim: int
    # per dimension: the vertex ranks, the face table and the places (see the module docstring)
    _tables: tuple[list[np.ndarray], ...] = field(compare=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @functools.cached_property
    def cofaces(self) -> dict[SimplexKey, tuple[tuple[SimplexKey, int], ...]]:
        """Each simplex's signed cofaces; a view built on first read."""
        out = {}
        for k, f in enumerate(self._tables[1][1:] + [np.zeros(0, dtype=int)]):
            # f[tau, i] is tau's face without vertex i, which has the coface (tau, (-1) ** i)
            signs = [(-1) ** i for i in range(k + 2)]
            pairs = [*itertools.product(self.simplices_of_dim(k + 1), signs)]
            out.update(_group(self.simplices_of_dim(k), f.ravel(), pairs))
        return out

    @functools.cached_property
    def carriers(self) -> dict[SimplexKey, tuple[SimplexKey, ...]]:
        """The maximal simplices containing each simplex; a view built on first read."""
        out, places, tops = {}, self._tables[2], sorted(self.maximal_simplices())
        for k in range(len(places)):
            # (the row of a k-face) * n + the place of a maximal simplex holding it
            code = np.sort(np.concatenate([(self._face_rows(m, k)[p >= 0] * len(tops)
                                            + p[p >= 0, None]).ravel()
                                           for m, p in enumerate(places[k:], k)]))
            out.update(_group(self.simplices_of_dim(k), code // len(tops),
                              [*map(tops.__getitem__, (code % len(tops)).tolist())]))
        return out

    def has_simplex(self, key: SimplexKey) -> bool:
        return key in self._row_of(len(key) - 1)

    def simplices_of_dim(self, k: int) -> tuple[SimplexKey, ...]:
        return self.simplices.get(k, ())

    def coords(self, key: SimplexKey) -> np.ndarray:
        """Vertex coordinates of a simplex, one row per vertex."""
        return np.array([self.vertices[v] for v in key], dtype=float)

    def maximal_simplices(self) -> tuple[SimplexKey, ...]:
        """Simplices that are not a proper face of any other simplex, by
        dimension and then by key."""
        return tuple(itertools.chain.from_iterable(
            map(self.simplices_of_dim(m).__getitem__, np.flatnonzero(places >= 0).tolist())
            for m, places in enumerate(self._tables[2])))

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
        """(volumes, covector Grams of degree k, the row of each key): the
        `_geometry_at` the keys' rows, which must all be of one dimension."""
        m = len(keys[0]) - 1
        if not 0 <= k <= m:  # refused before anything is built, a missing key first
            known = set(self.simplices_of_dim(m))
            if missing := [s for s in keys if s not in known]:
                raise MissingSimplex(f"{missing[0]} is not a simplex of the complex")
            raise BadDimension(f"no {k}-covectors on a {m}-simplex")
        rows = self._rows(m, keys)
        if (rows < 0).any():
            raise MissingSimplex(f"{keys[int(np.argmin(rows))]} is not a simplex of the complex")
        return (*self._geometry_at(m, rows, k), rows)

    def _geometry_at(self, m: int, rows: np.ndarray, k: int = 0):
        """(volumes, covector Grams of degree k): read-only arrays over all
        m-simplices, built once per m.  The rows must be rows of m-simplices,
        of positive volume when k >= 1."""
        if not 0 <= k <= m:
            raise BadDimension(f"no {k}-covectors on a {m}-simplex")
        if len(rows) and not 0 <= rows.min() <= rows.max() < len(self.simplices_of_dim(m)):
            raise MissingSimplex(f"rows {rows.min()}..{rows.max()} are not all {m}-simplices")
        if m not in self._memo:
            coords = np.array([*map(self.vertices.__getitem__, sorted(self.vertices))], dtype=float)
            pts = coords[self._tables[0][m]]
            edges = pts[:, 1:] - pts[:, :1]
            gram = edges @ edges.transpose(0, 2, 1)
            det = np.linalg.det(gram)  # 1.0 for a vertex
            vol = np.sqrt(np.where(det > 0.0, det, 0.0)) / math.factorial(m)
            ginv = np.zeros_like(gram)  # a simplex of zero volume has no inverse metric
            ginv[vol > 0.0] = np.linalg.inv(gram[vol > 0.0])
            vol.setflags(write=False)
            self._memo[m] = (vol, ginv, {})
        vol, ginv, grams = self._memo[m]
        if k and not vol[rows].all():
            row = rows[int(np.argmin(vol[rows]))]
            raise DegenerateSimplex(f"{self.simplices_of_dim(m)[row]} has zero volume")
        if k not in grams:
            sub = np.array([*itertools.combinations(range(m), k)], dtype=int)
            grams[k] = np.linalg.det(ginv[:, sub[:, None, :, None], sub[None, :, None, :]])
            grams[k].setflags(write=False)
        return vol, grams[k]

    def _row_of(self, m: int) -> dict[SimplexKey, int]:
        """{key: row} over the m-simplices, built on first use."""
        if (rows := self._memo.get(("rows", m))) is None:
            rows = self._memo["rows", m] = {s: i for i, s in enumerate(self.simplices_of_dim(m))}
        return rows

    def _rows(self, m: int, keys) -> np.ndarray:
        """The row of each key among the m-simplices, -1 for a key that is none."""
        return np.fromiter(map(self._row_of(m).get, keys, itertools.repeat(-1)), int, len(keys))

    def _face_rows(self, m: int, k: int) -> np.ndarray:
        """The row of each k-face of each m-simplex, one column per face in
        `itertools.combinations` position order: the face tables composed,
        dropping the missing positions highest first.  Built once; read-only."""
        if (m, k) not in self._memo:
            faces, cols = self._tables[1], []
            for pos in itertools.combinations(range(m + 1), k + 1):
                rows = np.arange(len(faces[m]))
                for j, q in enumerate(q for q in range(m, -1, -1) if q not in pos):
                    rows = faces[m - j][rows, q]
                cols.append(rows)
            self._memo[m, k] = np.column_stack(cols)
            self._memo[m, k].setflags(write=False)
        return self._memo[m, k]


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


@functools.cache
def _subsets(m: int, k: int) -> np.ndarray:
    """The (k + 1)-subsets of the positions 0..m, in combinations order.
    Read-only: callers share it."""
    subsets = np.array([*itertools.combinations(range(m + 1), k + 1)])
    subsets.setflags(write=False)
    return subsets


def _unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D integer array (np.unique hashes
    integers before sorting, which is several times slower here)."""
    a = np.sort(a)
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """start[i], ..., start[i] + count[i] - 1 for each i in turn."""
    ends = np.cumsum(count)
    return np.arange(count.sum()) + np.repeat(start - ends + count, count)


def _group(keys, owners: np.ndarray, items: list) -> dict:
    """{key: the tuple of the items whose owner is its row, in their order}."""
    ends = np.cumsum(np.bincount(owners, minlength=len(keys))).tolist()
    items = [*map(items.__getitem__, np.argsort(owners, kind="stable").tolist())]
    return {key: tuple(items[a:b]) for key, a, b in zip(keys, [0, *ends], ends)}


def _close_and_index(vertices: dict[int, tuple[float, ...]],
                     tops: dict[int, np.ndarray]) -> MetricComplex:
    """The face closure of `tops`, with its tables.

    `tops[m]` holds m-simplices as rows of m + 1 ascending ranks into
    sorted(vertices); rows may repeat and need not be maximal.
    """
    if not vertices:
        return MetricComplex({}, {}, 0, ([], [], []))
    ids = sorted(vertices)
    V, dim = len(ids), max(tops, default=0)
    # per dimension k: the sorted codes, the vertex ranks, the keys, and
    # faces[k][j, i], the row of the j-th k-simplex without its i-th vertex
    codes, ranks, keys = [np.arange(V)], [np.arange(V)[:, None]], [[(v,) for v in ids]]
    faces = [np.zeros((V, 0), dtype=int)]
    for k in range(1, dim + 1):
        found = np.concatenate([t[:, _subsets(m, k)].reshape(-1, k + 1)
                                for m, t in tops.items() if m >= k])
        row = found[:, 0]  # of found[:, :j + 1] among the j-simplices; at j = 0 the rank
        for j in range(1, k):
            row = np.searchsorted(codes[j], row * V + found[:, j])
        codes.append(_unique(row * V + found[:, -1]))
        prefix, last = np.divmod(codes[k], V)  # a key is its prefix's key plus one vertex
        ranks.append(np.column_stack([ranks[k - 1][prefix], last]))
        keys.append([*map(operator.add, map(keys[k - 1].__getitem__, prefix.tolist()),
                          map(keys[0].__getitem__, last.tolist()))])
        drop = last[:, None] if k == 1 else np.searchsorted(
            codes[k - 1], faces[k - 1][prefix, :k] * V + last[:, None])
        faces.append(np.column_stack([drop, prefix]))
    # a simplex is maximal when no face table names it; the maximal ones are
    # numbered in key order by their ranks, padded with -1 so a prefix sorts first
    first = [0, *itertools.accumulate(map(len, keys))]
    named = [np.bincount(f.ravel(), minlength=len(r))
             for r, f in zip(ranks, faces[1:] + [np.zeros(0, int)])]
    maximal = np.flatnonzero(np.concatenate(named) == 0)
    padded = np.full((first[-1], dim + 1), -1)
    for k, r in enumerate(ranks):
        padded[first[k]:first[k + 1], :k + 1] = r
    place = np.full(first[-1], -1)
    place[maximal[np.lexsort(padded[maximal].T[::-1])]] = np.arange(len(maximal))
    places = np.split(place, first[1:-1])
    for table in ranks + faces + places:
        table.setflags(write=False)
    return MetricComplex(vertices, {k: tuple(ks) for k, ks in enumerate(keys)}, dim,
                         (ranks, faces, places))


def build_complex(
    vertices: dict[int, tuple[float, ...]],
    top_simplices: list[tuple[int, ...]],
) -> MetricComplex:
    """Build a face-closed metric complex from vertices and top simplices."""
    vertices = {int(v): tuple(float(c) for c in xs) for v, xs in vertices.items()}
    lengths = {len(xs) for xs in vertices.values()}
    if len(lengths) > 1:
        raise ValueError("vertex coordinate vectors must share one length")
    rank = {v: i for i, v in enumerate(sorted(vertices))}
    rows: dict[int, list[list[int]]] = {}
    for t in top_simplices:
        if len(set(t)) != len(t):
            raise DegenerateSimplex(f"repeated vertex id in {t}")
        for v in t:
            if v not in vertices:
                raise MissingVertex(f"unknown vertex id {v}")
        if t:
            rows.setdefault(len(t) - 1, []).append(sorted(rank[v] for v in t))
    return _close_and_index(vertices, {m: np.array(r) for m, r in rows.items()})


def _is_connected(K: MetricComplex) -> bool:
    nbrs = [[] for _ in K.vertices]  # by vertex rank, from the edge table
    for a, b in K._tables[0][1].tolist() if K.dim >= 1 else []:
        nbrs[a].append(b)
        nbrs[b].append(a)
    seen = set(stack := [0] if nbrs else [])
    while stack:
        new = set(nbrs[stack.pop()]) - seen
        seen |= new
        stack.extend(new)
    return len(seen) == len(nbrs)


def validate_bounded_geometry(K: MetricComplex, L: float, N: int) -> GeometryReport:
    """Check the star bound N, the edge-length window [1/L, L], and connectivity."""
    if not (L >= 1 and N >= 1):  # NaN fails too
        raise ValueError("require L >= 1 and N >= 1")
    edges = K.simplices_of_dim(1)
    lengths = K._geometry_at(1, np.arange(len(edges)))[0].tolist() if edges else []
    violations = [(e, f"edge length {ell:.6g} outside [{1/L:.6g}, {L:.6g}]")
                  for e, ell in zip(edges, lengths) if not (1.0 / L - 1e-12 <= ell <= L + 1e-12)]
    # a vertex's degree is the number of edges holding its rank
    degrees = np.bincount(K._tables[0][1].ravel() if edges else [], minlength=len(K.vertices))
    violations += [((v,), f"vertex degree {d} exceeds {N}")
                   for v, d in zip(sorted(K.vertices), degrees.tolist()) if d > N]
    if not _is_connected(K):
        violations.append(((), "complex is disconnected"))
    return GeometryReport(
        max_vertex_degree=max(degrees.tolist(), default=0),
        min_edge_length=min(lengths, default=math.inf),
        max_edge_length=max(lengths, default=0.0),
        passes=not violations,
        violations=tuple(violations),
    )


def skeleton(K: MetricComplex, m: int) -> MetricComplex:
    """The subcomplex of all simplices of dimension <= m."""
    if not (0 <= m <= K.dim):
        raise BadDimension(f"skeleton dimension {m} outside [0, {K.dim}]")
    return _close_and_index(dict(K.vertices), dict(enumerate(K._tables[0][:m + 1])))


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
    if not K.vertices:
        return _close_and_index({}, {})
    ranks, faces, places = K._tables
    ids = sorted(K.vertices)
    # the fresh ids follow the original ones in (dimension, key) order, so a
    # simplex's barycenter has its place in that order as its rank
    first = [0, *itertools.accumulate(map(len, ranks))]
    coords = np.array([K.vertices[v] for v in ids], dtype=float)
    new_vertices = dict(K.vertices)
    new_vertices.update(zip(itertools.count(ids[-1] + 1), itertools.chain.from_iterable(
        map(tuple, coords[t].mean(axis=1).tolist()) for t in ranks[1:])))
    tops = {}
    for m in range(K.dim, 0, -1):  # a maximal vertex stays a vertex
        # the rows of the maximal m-simplices; each step down appends the last
        # face without each of its vertices, so the rows end as the flags
        # (T, a facet of T, ..., a vertex)
        flags = np.flatnonzero(places[m] >= 0)[:, None]
        for j in range(m, 0, -1):
            flags = np.column_stack([np.repeat(flags, j + 1, 0), faces[j][flags[:, -1]].ravel()])
        tops[m] = flags[:, ::-1] + first[:m + 1]
    return _close_and_index(new_vertices, tops)


def ray_complex(n: int, M: int) -> MetricComplex:
    """Truncated ray: a path of M unit edges (n=1) or a strip of 2M unit
    right triangles (n=2)."""
    if n not in (1, 2):
        raise BadDimension("ray_complex supports n in {1, 2}")
    if M < 1:
        raise ValueError("M >= 1 required")
    if n == 1:
        vertices = {i: (float(i),) for i in range(M + 1)}
        return _close_and_index(vertices, {1: np.arange(M)[:, None] + [0, 1]})
    # vertex 2j at (j, 0) and 2j + 1 at (j, 1); the ids are their ranks
    vertices = {i: (float(i // 2), float(i % 2)) for i in range(2 * M + 2)}
    a = 2 * np.arange(M)[:, None]
    return _close_and_index(vertices, {2: np.concatenate([a + [0, 2, 3], a + [0, 1, 3]])})


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
