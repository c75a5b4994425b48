import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiforms.complexes import (
    MetricComplex,
    PiSequence,
    _is_connected,
    barycentric_subdivide,
    build_complex,
    cube_boundary_complex,
    ray_complex,
    read_complex,
    skeleton,
    star,
    validate_bounded_geometry,
    write_complex,
)
from lpiforms.errors import (
    BadDimension,
    DegenerateSimplex,
    DuplicateVertex,
    MissingSimplex,
    MissingVertex,
)

from conftest import assert_same_complex, simplex_complex, sphere_complex


def euler_characteristic(K):
    return sum((-1) ** k * len(keys) for k, keys in K.simplices.items())


INCIDENCE_CASES = {
    **{f"ray{n}_{M}": (lambda n=n, M=M: ray_complex(n, M)) for n in (1, 2) for M in (1, 4)},
    "sd_triangle": lambda: barycentric_subdivide(simplex_complex(2)),
    "sd_tetrahedron": lambda: barycentric_subdivide(simplex_complex(3)),
    "sphere2": lambda: sphere_complex(2),
    "star": lambda: star(barycentric_subdivide(simplex_complex(3)), 0),
    "skeleton": lambda: skeleton(simplex_complex(3), 1),
    # maximal simplices of three dimensions, carriers across them
    "mixed": lambda: build_complex(
        {i: (float(i), float(i % 2)) for i in range(6)}, [(0, 1, 2), (2, 3), (4,), (3, 5)]
    ),
}


@pytest.mark.parametrize("case", INCIDENCE_CASES)
def test_incidence_matches_brute_force(case):
    K = INCIDENCE_CASES[case]()
    keys = [key for keys in K.simplices.values() for key in keys]
    maximal = [
        T for T in keys if not any(len(S) == len(T) + 1 and set(T) < set(S) for S in keys)
    ]
    assert list(K.maximal_simplices()) == maximal
    assert set(K.cofaces) == set(K.carriers) == set(keys)
    for sigma in keys:
        expect = []
        for tau in K.simplices_of_dim(len(sigma)):
            if set(sigma) < set(tau):
                missing = next(i for i, w in enumerate(tau) if w not in sigma)
                expect.append((tau, (-1) ** missing))
        assert list(K.cofaces[sigma]) == expect
        assert list(K.carriers[sigma]) == sorted(T for T in maximal if set(sigma) <= set(T))
    # stars and degrees as the containment scans defined them
    for v in K.vertices:
        tops = [key for key in keys if v in key]
        ref = build_complex({w: K.vertices[w] for w in {w for t in tops for w in t}}, tops)
        assert star(K, v) == ref
    degree = {v: sum(v in e for e in K.simplices_of_dim(1)) for v in K.vertices}
    rep = validate_bounded_geometry(K, L=4.0, N=3)
    assert rep.max_vertex_degree == max(degree.values())
    assert [key for key, msg in rep.violations if "degree" in msg] == [
        (v,) for v in sorted(degree) if degree[v] > 3
    ]


# The face-at-a-time closure and subdivision that the table build replaced,
# kept as the reference it must match, insertion order included.

def _reference_faces(key):
    for r in range(1, len(key) + 1):
        yield from itertools.combinations(key, r)


def reference_build(vertices, tops):
    """build_complex without its input checks, by one face tuple at a time."""
    vertices = {int(v): tuple(float(c) for c in xs) for v, xs in vertices.items()}
    tops = [tuple(sorted(int(v) for v in t)) for t in tops]
    by_dim = {}
    for t in tops:
        for f in _reference_faces(t):
            by_dim.setdefault(len(f) - 1, set()).add(f)
    for v in vertices:
        by_dim.setdefault(0, set()).add((v,))
    simplices = {k: tuple(sorted(keys)) for k, keys in sorted(by_dim.items())}
    cofaces = {key: [] for keys in simplices.values() for key in keys}
    for k, keys in simplices.items():
        if k == 0:
            continue
        # combinations(tau, k) drops tau[k], then tau[k - 1], ..., then tau[0]
        signs = [(-1) ** i for i in range(k, -1, -1)]
        for tau in keys:
            for face, sign in zip(itertools.combinations(tau, k), signs):
                cofaces[face].append((tau, sign))
    carriers = {key: [] for key in cofaces}
    for T in sorted(key for key, cof in cofaces.items() if not cof):
        for f in _reference_faces(T):
            carriers[f].append(T)
    # the vertex ranks of each simplex, and the row of each simplex without each
    # vertex (a vertex has no faces)
    rank = {v: i for i, v in enumerate(sorted(vertices))}
    row = {key: i for keys in simplices.values() for i, key in enumerate(keys)}
    ranks = [np.array([[rank[v] for v in key] for key in keys], dtype=int).reshape(len(keys), k + 1)
             for k, keys in simplices.items()]
    faces = [np.array([[row[key[:i] + key[i + 1:]] for i in range(k + 1) if k] for key in keys],
                      dtype=int).reshape(len(keys), k + 1 if k else 0)
             for k, keys in simplices.items()]
    # the place of each maximal simplex among them in key order, -1 for the others
    place = {T: i for i, T in enumerate(sorted(key for key, cof in cofaces.items() if not cof))}
    places = [np.array([place.get(key, -1) for key in keys], dtype=int) for keys in simplices.values()]
    K = MetricComplex(vertices, simplices, max(simplices) if simplices else 0, (ranks, faces, places))
    # the reference dicts stand in for the views, which are kept in the
    # instance dict, so `assert_same_complex` holds the built views to them
    K.__dict__.update(cofaces={key: tuple(cof) for key, cof in cofaces.items()},
                      carriers={key: tuple(car) for key, car in carriers.items()})
    return K


def reference_subdivide(K):
    next_id = max(K.vertices, default=-1) + 1
    bary_id = {}
    new_vertices = dict(K.vertices)
    for k in sorted(K.simplices):
        for key in K.simplices[k]:
            if k == 0:
                bary_id[key] = key[0]
            else:
                bary_id[key] = next_id
                new_vertices[next_id] = tuple(K.coords(key).mean(axis=0))
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
    return reference_build(new_vertices, tops)


def reference_ray(n, M):
    if n == 1:
        return reference_build({i: (float(i),) for i in range(M + 1)},
                               [(i, i + 1) for i in range(M)])
    vertices = {}
    for j in range(M + 1):
        vertices[2 * j] = (float(j), 0.0)
        vertices[2 * j + 1] = (float(j), 1.0)
    tops = []
    for j in range(M):
        tops += [(2 * j, 2 * j + 2, 2 * j + 3), (2 * j, 2 * j + 1, 2 * j + 3)]
    return reference_build(vertices, tops)


TETRAHEDRON = ({0: (0.0, 0.0, 0.0), 1: (2.0, 0.0, 0.0), 2: (0.5, 1.5, 0.0), 3: (1 / 3, 0.25, 1.25)},
               [(0, 1, 2, 3)])


# vertex ids far from 0 and not contiguous; maximal simplices of four
# dimensions, an isolated vertex, a repeated top and a top inside another
_BIG = 10**12
MIXED = ({_BIG + 7 * i: (float(i), float(i * i % 5), 0.5 * i) for i in range(9)},
         [(_BIG + 21, _BIG + 0, _BIG + 7, _BIG + 14), (_BIG + 14, _BIG + 28), (_BIG + 35,),
          (_BIG + 28, _BIG + 42, _BIG + 49), (_BIG + 7, _BIG + 0), (_BIG + 42, _BIG + 49, _BIG + 28)])

# ids past int64, which numpy keeps as Python ints
HUGE = ({2**64 + 5 * i: (float(i), float(i % 3)) for i in range(7)},
        [(2**64, 2**64 + 5, 2**64 + 10), (2**64 + 20, 2**64 + 15), (2**64 + 30,)])

ORACLE_CASES = {
    "sd_ray_1000": (lambda: barycentric_subdivide(ray_complex(1, 1000)),
                    lambda: reference_subdivide(reference_ray(1, 1000))),
    **{f"sd_strip_{M}": (lambda M=M: barycentric_subdivide(ray_complex(2, M)),
                         lambda M=M: reference_subdivide(reference_ray(2, M)))
       for M in (4, 48, 128)},
    "sd_sd_tetrahedron": (lambda: barycentric_subdivide(barycentric_subdivide(
                              build_complex(*TETRAHEDRON))),
                          lambda: reference_subdivide(reference_subdivide(
                              reference_build(*TETRAHEDRON)))),
    "mixed": (lambda: build_complex(*MIXED), lambda: reference_build(*MIXED)),
    "sd_mixed": (lambda: barycentric_subdivide(build_complex(*MIXED)),
                 lambda: reference_subdivide(reference_build(*MIXED))),
    "huge_ids": (lambda: barycentric_subdivide(build_complex(*HUGE)),
                 lambda: reference_subdivide(reference_build(*HUGE))),
    "empty": (lambda: build_complex({}, []), lambda: reference_build({}, [])),
    "sd_empty": (lambda: barycentric_subdivide(build_complex({}, [])),
                 lambda: reference_subdivide(reference_build({}, []))),
    "vertices_only": (lambda: build_complex({3: (1.0,), -2: (0.0,)}, [(3,), ()]),
                      lambda: reference_build({3: (1.0,), -2: (0.0,)}, [(3,), ()])),
    "star": (lambda: star(build_complex(*MIXED), _BIG + 28),
             lambda: reference_build(
                 {v: MIXED[0][v] for v in (_BIG + 14, _BIG + 28, _BIG + 42, _BIG + 49)},
                 [(_BIG + 14, _BIG + 28), (_BIG + 28, _BIG + 42, _BIG + 49)])),
    "skeleton": (lambda: skeleton(build_complex(*MIXED), 1),
                 lambda: reference_build(MIXED[0], [e for t in MIXED[1] for e in
                                                    itertools.combinations(t, min(2, len(t)))])),
    "read_complex": (lambda: read_complex(write_complex(barycentric_subdivide(ray_complex(2, 3)))),
                     lambda: reference_subdivide(reference_ray(2, 3))),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_table_build_matches_the_face_at_a_time_reference(case):
    build, reference = ORACLE_CASES[case]
    assert_same_complex(build(), reference())


def test_table_codes_do_not_overflow_on_many_vertices():
    # 60,000 vertices: a mixed-radix code V**4 of a tetrahedron would exceed
    # int64, so the top ranks only come out right when codes stay in range
    V = 60_000
    vertices = {i: (float(i), float(i % 7), float(i % 11)) for i in range(V)}
    tops = [(V - 1, V - 2, V - 3, V - 4), (V - 5, V - 2, V - 3, V - 4), (0, V - 1, V - 9, 17)]
    assert_same_complex(build_complex(vertices, tops), reference_build(vertices, tops))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=5, unique=True), max_size=8),
       st.integers(-3, 10**15))
def test_table_build_matches_the_reference_on_random_tops(tops, shift):
    vertices = {3 * v + shift: (float(v), float(v % 3)) for v in range(12)}
    tops = [tuple(3 * v + shift for v in t) for t in tops]
    K = build_complex(vertices, tops)
    assert_same_complex(K, reference_build(vertices, tops))
    assert_same_complex(barycentric_subdivide(K), reference_subdivide(K))


@pytest.mark.parametrize("case", ["sd_sd_tetrahedron", "mixed", "sd_mixed", "skeleton",
                                  "sd_strip_4"])
def test_face_rows_are_the_rows_of_the_faces(case):
    # column f of _face_rows(m, k) is the f-th k-face of each m-simplex in
    # combinations order, looked up in the k-simplices
    K = ORACLE_CASES[case][0]()
    for m in range(K.dim + 1):
        tops = K.simplices_of_dim(m)
        for k in range(m + 1):
            rows, faces = K._face_rows(m, k), K.simplices_of_dim(k)
            assert rows.shape == (len(tops), math.comb(m + 1, k + 1)) and not rows.flags.writeable
            assert [[faces[r] for r in row] for row in rows.tolist()] == [
                list(itertools.combinations(T, k + 1)) for T in tops], (m, k)


@pytest.mark.parametrize("case", ["sd_sd_tetrahedron", "mixed", "sd_mixed", "skeleton",
                                  "vertices_only", "empty"])
def test_places_number_the_maximal_simplices_in_key_order(case):
    K = ORACLE_CASES[case][0]()
    by_key = sorted(K.maximal_simplices())
    for m in range(K.dim + 1 if K.vertices else 0):
        places = K._tables[2][m]
        assert not places.flags.writeable
        assert places.tolist() == [by_key.index(s) if s in by_key else -1
                                   for s in K.simplices_of_dim(m)], m


@pytest.mark.parametrize("case", ["mixed", "sd_mixed", "vertices_only", "empty", "huge_ids",
                                  "sd_strip_4"])
def test_bounded_geometry_degrees_are_the_coface_counts(case):
    # the degrees come from one bincount over the edge ranks; they must be
    # the number of cofaces of each vertex, reported in vertex order
    K = ORACLE_CASES[case][0]()
    rep = validate_bounded_geometry(K, L=100.0, N=2)
    degrees = {v: len(K.cofaces[(v,)]) for v in K.vertices}
    assert rep.max_vertex_degree == max(degrees.values(), default=0)
    assert type(rep.max_vertex_degree) is int
    assert [v for v in rep.violations if "degree" in v[1]] == [
        ((v,), f"vertex degree {d} exceeds 2") for v, d in sorted(degrees.items()) if d > 2]


def test_face_closure_counts():
    K = simplex_complex(3)
    assert [len(K.simplices_of_dim(k)) for k in range(4)] == [4, 6, 4, 1]
    assert euler_characteristic(K) == 1


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateSimplex):
        build_complex({0: (0.0,), 1: (1.0,)}, [(0, 0)])


def test_missing_vertex_rejected():
    with pytest.raises(MissingVertex):
        build_complex({0: (0.0,)}, [(0, 5)])


def test_isolated_vertex_kept():
    K = build_complex({0: (0.0,), 1: (1.0,), 2: (5.0,)}, [(0, 1), (2,)])
    assert K.has_simplex((2,))


def test_bounded_geometry_pass(triangle):
    rep = validate_bounded_geometry(triangle, L=1.0, N=6)
    assert rep.passes
    assert rep.max_vertex_degree == 2
    assert rep.min_edge_length == pytest.approx(1.0)


def test_bounded_geometry_edge_window():
    K = build_complex({0: (0.0,), 1: (3.0,)}, [(0, 1)])
    rep = validate_bounded_geometry(K, L=2.0, N=6)
    assert not rep.passes
    assert any("edge length" in msg for _, msg in rep.violations)


def test_bounded_geometry_degree_and_connectivity():
    # star with 7 edges at vertex 0
    verts = {i: (math.cos(i), math.sin(i)) for i in range(1, 8)}
    verts[0] = (0.0, 0.0)
    K = build_complex(verts, [(0, i) for i in range(1, 8)])
    assert not validate_bounded_geometry(K, L=2.0, N=6).passes
    # two components
    K2 = build_complex({0: (0.0,), 1: (1.0,), 2: (3.0,), 3: (4.0,)}, [(0, 1), (2, 3)])
    rep = validate_bounded_geometry(K2, L=1.0, N=6)
    assert not rep.passes


def test_skeleton_and_star():
    K = simplex_complex(3)
    S1 = skeleton(K, 1)
    assert S1.dim == 1
    assert len(S1.simplices_of_dim(1)) == 6
    assert all(K.has_simplex(key) for key in S1.cofaces)
    assert all(K.vertices[v] == xs for v, xs in S1.vertices.items())
    with pytest.raises(BadDimension):
        skeleton(K, 7)
    st0 = star(K, 0)
    assert st0.has_simplex((0, 1, 2, 3))
    assert all(K.has_simplex(key) for key in st0.cofaces)
    assert all(K.vertices[v] == xs for v, xs in st0.vertices.items())


def test_subdivision_flag_counts(triangle):
    Kp = barycentric_subdivide(triangle)
    assert len(Kp.maximal_simplices()) == 6  # (2+1)! flags
    K3p = barycentric_subdivide(simplex_complex(3))
    assert len(K3p.maximal_simplices()) == 24  # (3+1)!


def test_subdivision_preserves_euler_and_vertices(triangle):
    Kp = barycentric_subdivide(triangle)
    assert euler_characteristic(Kp) == euler_characteristic(triangle)
    for v in triangle.vertices:
        assert Kp.has_simplex((v,))
    # barycenter of the triangle sits at the centroid
    cents = [xy for v, xy in Kp.vertices.items() if v not in triangle.vertices]
    assert any(
        abs(x - 0.5) < 1e-12 and abs(y - math.sqrt(3) / 6) < 1e-12 for x, y in cents
    )


def test_pi_sequence_validity():
    assert PiSequence((2.0, 4.0), 1).is_valid()
    assert not PiSequence((1.0, 4.0), 1).is_valid()  # p must exceed 1
    # Sobolev step violated: 1/1.5 - 1/10 = 0.567 > 1/2
    assert not PiSequence((10.0, 1.5, 2.0), 2).is_valid()
    assert PiSequence((4.0, 2.0), 1).is_non_increasing()
    assert not PiSequence((2.0, 4.0), 1).is_non_increasing()


def test_ray_complex_counts():
    K = ray_complex(1, 5)
    assert len(K.simplices_of_dim(0)) == 6
    assert len(K.simplices_of_dim(1)) == 5
    S = ray_complex(2, 4)
    assert len(S.maximal_simplices()) == 8
    assert validate_bounded_geometry(S, L=1.5, N=8).passes


def test_cube_boundary():
    assert cube_boundary_complex(1).dim == 0
    sq = cube_boundary_complex(2)
    assert len(sq.simplices_of_dim(1)) == 4
    assert euler_characteristic(sq) == 0
    with pytest.raises(BadDimension):
        cube_boundary_complex(3)


def test_volumes(triangle):
    assert triangle.volume((0, 1)) == pytest.approx(1.0)
    assert triangle.volume((0, 1, 2)) == pytest.approx(math.sqrt(3) / 4)
    K3 = sphere_complex(2)
    # faces of the unit-coordinate 3-simplex boundary: side lengths sqrt 2
    assert K3.volume((0, 1, 2)) == pytest.approx(math.sqrt(3) / 2)


GEOMETRY_CASES = {
    "sd_strip": lambda: barycentric_subdivide(ray_complex(2, 3)),
    "sd_tetrahedron": lambda: barycentric_subdivide(simplex_complex(3)),
    "tetrahedron": lambda: build_complex(
        {0: (0.0, 0.0, 0.0), 1: (2.0, 0.0, 0.0), 2: (0.5, 1.5, 0.0), 3: (1 / 3, 0.25, 1.25)},
        [(0, 1, 2, 3)]),
    # a triangle, a dangling edge and an isolated vertex
    "mixed": lambda: build_complex({0: (0.0, 0.0), 1: (1.0, 0.2), 2: (0.3, 0.9),
                                    3: (2.0, 1.5), 4: (-1.0, -1.0)},
                                   [(0, 1, 2), (2, 3), (4,)]),
}


@pytest.mark.parametrize("case", GEOMETRY_CASES)
def test_stacked_geometry_equals_a_per_simplex_reference(case):
    K = GEOMETRY_CASES[case]()
    for m, keys in K.simplices.items():
        for key in keys:
            edges = K.coords(key)[1:] - K.coords(key)[0]
            det = np.linalg.det(edges @ edges.T)
            assert K.volume(key) == (math.sqrt(det) / math.factorial(m) if det > 0.0 else 0.0)
            ginv = np.linalg.inv(edges @ edges.T)
            for k in range(m + 1):
                subsets = list(itertools.combinations(range(m), k))
                want = [[np.linalg.det(ginv[np.ix_(I, J)]) for J in subsets] for I in subsets]
                assert K.covector_gram(key, k).tolist() == want, (key, k)


def test_geometry_arrays_are_read_only():
    K = GEOMETRY_CASES["mixed"]()
    for key, k in (((0, 1, 2), 1), ((2, 3), 1), ((4,), 0)):
        vol, grams, _ = K._geometry((key,), k)
        for a in (vol, grams, K.covector_gram(key, k)):
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_geometry_rejects_keys_that_are_not_simplices():
    K = ray_complex(1, 3)
    for key in ((0, 3), (1, 0), (7,), ()):
        with pytest.raises(MissingSimplex):
            K.volume(key)
        with pytest.raises(MissingSimplex):
            K.covector_gram(key, 1)
    assert K.volume((0, 1)) == 1.0


def test_covector_gram_rejects_a_degree_outside_the_simplex():
    K = ray_complex(1, 3)
    for key, k in (((0, 1), 2), ((0, 1), -1), ((2,), 1), ((2,), -1)):
        with pytest.raises(BadDimension):
            K.covector_gram(key, k)
    assert not K._memo  # raised before any geometry was built
    assert K.covector_gram((0, 1), 1).tolist() == [[1.0]]


def test_a_degenerate_simplex_leaves_its_dimension_intact():
    verts = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.3, 0.8), 3: (2.0, 0.0)}
    good = build_complex(verts, [(0, 1, 2)])
    K = build_complex(verts, [(0, 1, 2), (0, 1, 3)])  # (0, 1, 3) is collinear
    assert K.volume((0, 1, 3)) == 0.0
    assert K.volume((0, 1, 2)) == good.volume((0, 1, 2))
    for k in (1, 2):
        assert K.covector_gram((0, 1, 2), k).tolist() == good.covector_gram((0, 1, 2), k).tolist()
        with pytest.raises(DegenerateSimplex):
            K.covector_gram((0, 1, 3), k)
    assert K.covector_gram((0, 1, 3), 0).tolist() == [[1.0]]  # no metric needed


@pytest.mark.parametrize("case", GEOMETRY_CASES)
def test_geometry_by_rows_equals_geometry_by_keys(case):
    K = GEOMETRY_CASES[case]()
    for m, keys in K.simplices.items():
        for k in range(m + 1):
            vol, grams, rows = K._geometry(keys, k)
            at = K._geometry_at(m, rows, k)
            assert at[0] is vol and at[1] is grams
            assert rows.tolist() == list(range(len(rows)))


def test_geometry_by_rows_refuses_like_geometry_by_keys():
    verts = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.3, 0.8), 3: (2.0, 0.0)}
    K = build_complex(verts, [(0, 1, 2), (0, 1, 3)])  # (0, 1, 3) is collinear
    assert K.simplices_of_dim(2) == ((0, 1, 2), (0, 1, 3))
    for rows in ([2], [-1], [0, 2]):
        with pytest.raises(MissingSimplex):
            K._geometry_at(2, np.array(rows))
    with pytest.raises(MissingSimplex):
        K._geometry([(0, 1, 2), (1, 2, 3)])  # a key off the complex, with its row -1
    with pytest.raises(MissingSimplex):
        K._geometry([(0, 1, 2), (1, 2)])  # a key of another dimension
    with pytest.raises(BadDimension):
        K._geometry_at(2, np.array([0]), 3)
    for k in (1, 2):
        with pytest.raises(DegenerateSimplex, match=r"\(0, 1, 3\)"):
            K._geometry_at(2, np.array([0, 1]), k)
        assert K._geometry_at(2, np.array([0]), k)[1] is K._geometry([(0, 1, 2)], k)[1]
    assert K._geometry_at(2, np.array([1]))[0].tolist() == [K.volume((0, 1, 2)), 0.0]


def _connected_by_cofaces(K):
    """The walk `_is_connected` made over the coface dicts before it read the
    edge table, kept as its reference."""
    seen = set(stack := list(K.vertices)[:1])
    while stack:
        new = {w for edge, _sign in K.cofaces[(stack.pop(),)] for w in edge} - seen
        seen |= new
        stack.extend(new)
    return len(seen) == len(K.vertices)


@pytest.mark.parametrize("build, connected", [
    (lambda: barycentric_subdivide(ray_complex(2, 6)), True),
    (lambda: build_complex({0: (0.0,), 1: (1.0,), 2: (3.0,), 3: (4.0,)}, [(0, 1), (2, 3)]), False),
    (lambda: build_complex({0: (0.0,), 1: (1.0,), 2: (5.0,)}, [(0, 1), (2,)]), False),
    (lambda: build_complex({7: (0.0, 0.0)}, [(7,)]), True),
    (lambda: build_complex({}, []), True),
], ids=["strip", "two_components", "isolated_vertex", "one_vertex", "empty"])
def test_connectivity_matches_the_coface_walk(build, connected):
    K = build()
    assert _is_connected(K) is connected
    assert _connected_by_cofaces(K) is connected


def test_io_round_trip(subdivided_triangle):
    text = write_complex(subdivided_triangle)
    K2 = read_complex(text)
    assert write_complex(K2) == text
    assert K2.simplices == subdivided_triangle.simplices


def test_read_complex_rejects_wrong_dim_header(triangle):
    text = write_complex(triangle)
    assert text.startswith("dim 2\n")
    with pytest.raises(BadDimension):
        read_complex(text.replace("dim 2", "dim 3", 1))


def test_read_complex_rejects_repeated_vertex():
    text = "dim 1\nvertices\n0 0.0\n1 1.0\n1 2.0\nsimplices\n0 1\n"
    with pytest.raises(DuplicateVertex):
        read_complex(text)


@pytest.mark.parametrize("vertices, simplices", [
    ("0 0.0\n1 0.0", "0 1"),  # coincident ends
    ("0 0.0\n1 inf", "0 1"),
    ("0 0.0\n1 1.0\n2 nan", "0 1\n2"),  # an isolated vertex too
])
def test_read_complex_rejects_a_degenerate_simplex(vertices, simplices):
    with pytest.raises(DegenerateSimplex):
        read_complex(f"dim 1\nvertices\n{vertices}\nsimplices\n{simplices}\n")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_path_subdivision_euler(m):
    K = ray_complex(1, m)
    Kp = barycentric_subdivide(K)
    assert euler_characteristic(Kp) == euler_characteristic(K) == 1
    assert len(Kp.simplices_of_dim(1)) == 2 * m
