import dataclasses
import time
from collections import deque
from itertools import chain

import numpy as np
import pytest
import sympy

from lpiforms.complexes import barycentric_subdivide, build_complex, ray_complex, skeleton, star
from lpiforms.contract import (
    _BLOCK,
    RANK_RTOL,
    Contraction,
    ContractionFailure,
    MatrixComplex,
    _coreduce,
    _exact_rank,
    _scan,
    assemble,
    cohomology_dims,
    contract,
    rational_cohomology_dims,
    verify_contraction,
)
from lpiforms.errors import BadDegree, BadDimension

from conftest import simplex_complex, sphere_complex


def test_assemble_single_edge():
    M = assemble(build_complex({0: (0.0,), 1: (1.0,)}, [(0, 1)]))
    assert M.dims == (2, 1)
    assert np.array_equal(M.matrix(0), [[-1.0, 1.0]])


def reference_coboundaries(K):
    """The D_k that `assemble` filled one coface at a time before it read the
    face table, kept as the reference it must match byte for byte."""
    mats = []
    for k in range(K.dim):
        rows = K.simplices_of_dim(k + 1)
        row_ix = {s: i for i, s in enumerate(rows)}
        D = np.zeros((len(rows), len(K.simplices_of_dim(k))))
        for j, sigma in enumerate(K.simplices_of_dim(k)):
            for tau, sign in K.cofaces[sigma]:
                D[row_ix[tau], j] = sign
        mats.append(D)
    return mats


@pytest.mark.parametrize("build", [
    lambda: barycentric_subdivide(ray_complex(2, 48)),
    lambda: barycentric_subdivide(simplex_complex(3)),
    lambda: skeleton(barycentric_subdivide(simplex_complex(3)), 2),
], ids=["sd_strip_48", "sd_tetrahedron", "skeleton"])
def test_assemble_matches_the_coface_loop(build):
    K = build()
    want = reference_coboundaries(K)
    for augmented in (False, True):
        got = assemble(K, augmented=augmented).matrices[augmented:]
        assert len(got) == len(want)
        for D, ref in zip(got, want):
            assert (D.dtype, D.shape) == (ref.dtype, ref.shape)
            assert D.tobytes() == ref.tobytes()


@pytest.mark.parametrize("build", [
    lambda: barycentric_subdivide(ray_complex(2, 48)),
    lambda: barycentric_subdivide(simplex_complex(3)),
    lambda: skeleton(barycentric_subdivide(simplex_complex(3)), 2),
    lambda: ray_complex(1, 999),
    lambda: build_complex({}, []),
], ids=["sd_strip_48", "sd_tetrahedron", "skeleton", "path_999", "empty"])
def test_assembled_incidence_equals_the_scanned_one(build):
    # assemble hands its triples over unscanned; a copy through the public
    # constructor scans the same matrices
    K = build()
    for augmented in (False, True):
        M = assemble(K, augmented=augmented)
        ref = MatrixComplex(M.dims, M.matrices)
        assert len(M._incidence) == len(ref._incidence) == len(M.matrices)
        for got, want in zip(M._incidence, ref._incidence):
            for (*arrays, lists), (*ref_arrays, ref_lists) in zip(got, want):
                for a, b in zip(arrays, ref_arrays):
                    assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b)
                assert lists == ref_lists
        for D in M.matrices:
            with pytest.raises(ValueError):
                D[...] = 5.0


def test_dd_zero_matrix():
    M = assemble(simplex_complex(2))
    assert np.abs(M.matrix(1) @ M.matrix(0)).max() == 0.0
    assert M.dims == (3, 3, 1)


def test_cohomology_known_spaces():
    assert cohomology_dims(assemble(sphere_complex(1))) == [1, 1]
    assert cohomology_dims(assemble(sphere_complex(2))) == [1, 0, 1]
    assert cohomology_dims(assemble(simplex_complex(3))) == [1, 0, 0, 0]
    assert cohomology_dims(assemble(ray_complex(1, 6))) == [1, 0]


@pytest.mark.parametrize(
    "K",
    [
        simplex_complex(2),
        simplex_complex(3),
        sphere_complex(1),
        sphere_complex(2),
        ray_complex(2, 3),
    ],
    ids=["tri", "tet", "circle", "sphere", "strip"],
)
def test_rational_oracle_agrees(K):
    M = assemble(K)
    assert cohomology_dims(M) == rational_cohomology_dims(M)


def test_contract_acyclic_augmented():
    for K in (simplex_complex(1), simplex_complex(2), simplex_complex(3),
              barycentric_subdivide(simplex_complex(2))):
        M = assemble(K, augmented=True)
        h = contract(M)
        assert isinstance(h, Contraction)
        rep = verify_contraction(M, h, tol=1e-8)
        assert rep.passed


def test_contract_positive_degrees_unaugmented():
    M = assemble(simplex_complex(2))
    h = contract(M)
    assert isinstance(h, Contraction)
    assert verify_contraction(M, h, tol=1e-8).passed


def test_contract_fails_on_spheres():
    res1 = contract(assemble(sphere_complex(1)))
    assert isinstance(res1, ContractionFailure)
    assert res1.degree == 1
    # the defect is g f, the projection onto the critical cell that carries the
    # cohomology; its largest entry is the 1 on that cell's own diagonal
    assert res1.residual == 1.0
    res2 = contract(assemble(sphere_complex(2)))
    assert isinstance(res2, ContractionFailure)
    assert res2.degree == 2
    assert res2.residual == 1.0


@pytest.mark.parametrize("make", [
    lambda: assemble(simplex_complex(1), augmented=True),
    lambda: assemble(simplex_complex(2), augmented=True),
    lambda: assemble(simplex_complex(3), augmented=True),
    lambda: assemble(barycentric_subdivide(simplex_complex(2)), augmented=True),
    lambda: assemble(simplex_complex(2)),
    lambda: MatrixComplex((1, 1), (np.eye(1),)),
    lambda: assemble(barycentric_subdivide(ray_complex(2, 48)), augmented=True),
], ids=["edge", "tri", "tet", "sd-tri", "tri-plain", "identity", "strip-48"])
def test_contract_matches_the_svd_pseudo_inverse(make):
    # h is an exact integer inner inverse of D, not D^+; it agrees with the SVD
    # pseudo-inverse D^+ between the row and column spaces of D, the only part
    # that D h D = D fixes: D^+ D h D D^+ = D^+
    M = make()
    h = contract(M)
    assert isinstance(h, Contraction)
    assert verify_contraction(M, h).max_residual == 0.0
    for i in range(1, M.top + 1):
        D, hi = M.matrix(i - 1), h.maps[i]
        assert np.array_equal(hi, np.round(hi))
        assert np.array_equal(D @ hi @ D, D)
        if i < M.top:
            assert not (hi @ h.maps[i + 1]).any()
        ref = np.linalg.pinv(D, rcond=RANK_RTOL)
        assert np.abs(ref @ D @ hi @ D @ ref - ref).max(initial=0.0) <= 1e-10


def _random_integer_complex(rng) -> MatrixComplex:
    """A direct sum of pieces R -p-> R (p in {1, -1, 2}) and of free cells, in
    bases changed by random unimodular integer matrices."""
    top = int(rng.integers(1, 4))
    n = [0, *(int(k) for k in rng.integers(1, 3, size=top)), 0]  # n[i + 1]: pieces i -> i + 1
    dims = [n[i] + n[i + 1] + int(rng.random() < 0.3) for i in range(top + 1)]  # + a free cell
    mats = [np.zeros((dims[i + 1], dims[i]), dtype=np.int64) for i in range(top)]
    for i, D in enumerate(mats):  # piece k enters degree i + 1 at row k
        for k in range(n[i + 1]):
            D[k, n[i] + k] = rng.choice((1, 1, -1, 2))
    bases = []
    for d in dims:
        P = np.eye(d, dtype=np.int64)
        for _ in range(2 * d):
            a, b = rng.integers(0, d, size=2)
            if a != b:
                P[b] += int(rng.choice((-1, 1))) * P[a]
        bases.append(P[rng.permutation(d)])
    inverses = [np.rint(np.linalg.inv(P)).astype(np.int64) for P in bases]
    mats = [bases[i + 1] @ D @ inverses[i] for i, D in enumerate(mats)]
    return MatrixComplex(tuple(dims), tuple(D.astype(float) for D in mats))


def reference_coreduce(M: MatrixComplex):
    """The matching with the dense eta row update `_coreduce` made before it
    read only the rows of facets paired as lower cells: e_u minus a gathered
    block of eta rows times D[u, facets], over D[u, l].  Kept as the
    reference it must match byte for byte."""
    facets = [[[]] * M.dims[0]] + [by_row[3] for by_row, _ in M._incidence]
    cofaces = [by_col[3] for _, by_col in M._incidence] + [[[]] * M.dims[-1]]
    alive, critical = [[True] * d for d in M.dims], [[] for _ in M.dims]
    eta = {i: np.zeros((M.dims[i - 1], M.dims[i])) for i in range(1, len(M.dims))}
    cells = [(i, c) for i, d in enumerate(M.dims) for c in range(d)]
    queue = deque(cells)

    def remove(i, c):
        alive[i][c] = False
        queue.extend((i + 1, r) for r in cofaces[i][c])

    for low in cells:
        while queue:
            i, u = queue.popleft()
            live = [j for j in facets[i][u] if alive[i - 1][j]]
            if alive[i][u] and len(live) == 1:
                l, D, fs = live[0], M.matrices[i - 1], facets[i][u]
                eta[i][l] = (np.eye(1, M.dims[i], u)[0] - D[u, fs] @ eta[i][fs]) / D[u, l]
                remove(i, u)
                remove(i - 1, l)
        if alive[low[0]][low[1]]:
            critical[low[0]].append(low[1])
            remove(*low)
    return eta, critical


def list_coreduce(M: MatrixComplex):
    """`_coreduce` as it was when each popped cell rebuilt the list of its
    unpaired facets, before it kept a count of them.  Kept as the reference
    it must match exactly."""
    facets = [[[]] * M.dims[0]] + [by_row[3] for by_row, _ in M._incidence]
    cofaces = [by_col[3] for _, by_col in M._incidence] + [[[]] * M.dims[-1]]
    starts = [[]] + [by_row[0].tolist() for by_row, _ in M._incidence]
    values = [[]] + [by_row[2].tolist() for by_row, _ in M._incidence]
    alive, critical = [[True] * d for d in M.dims], [[] for _ in M.dims]
    eta = {i: {} for i in range(1, len(M.dims))}
    cells = [(i, c) for i, d in enumerate(M.dims) for c in range(d)]
    queue = deque(cells)

    def remove(i, c):
        alive[i][c] = False
        queue.extend((i + 1, r) for r in cofaces[i][c])

    for low in cells:
        while queue:
            i, u = queue.popleft()
            live = [j for j in facets[i][u] if alive[i - 1][j]]
            if alive[i][u] and len(live) == 1:
                l, fs, p, rows = live[0], facets[i][u], starts[i][u], eta[i]
                row = {}
                for f, d in zip(fs, values[i][p:p + len(fs)]):
                    for c, x in zip(*rows.get(f, ((), ()))):
                        row[c] = row.get(c, 0.0) - d * x
                row[u] = 1.0
                pivot = values[i][p + fs.index(l)]
                rows[l] = list(row), [x / pivot for x in row.values()]
                remove(i, u)
                remove(i - 1, l)
        if alive[low[0]][low[1]]:
            critical[low[0]].append(low[1])
            remove(*low)
    for i, rows in eta.items():
        r = np.repeat(np.fromiter(rows, int, len(rows)), [len(c) for c, _ in rows.values()])
        c = np.fromiter(chain.from_iterable(c for c, _ in rows.values()), int, len(r))
        v = np.fromiter(chain.from_iterable(v for _, v in rows.values()), float, len(r))
        o = np.argsort(r * M.dims[i] + c, kind="stable")
        o = o[v[o] != 0]
        eta[i] = (M.dims[i - 1], M.dims[i]), r[o], c[o], v[o]
    return eta, critical


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("build", [
    lambda: barycentric_subdivide(ray_complex(2, 48)),
    lambda: barycentric_subdivide(build_complex({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 0.8)},
                                                [(0, 1, 2)])),
], ids=["sd_strip_48", "sd_triangle"])
def test_coreduce_matches_the_list_based_matching(build, augmented):
    M = assemble(build(), augmented=augmented)
    (eta, critical), (ref, ref_critical) = _coreduce(M), list_coreduce(M)
    assert critical == ref_critical
    assert eta.keys() == ref.keys()
    for i in ref:
        assert eta[i][0] == ref[i][0]
        assert all(np.array_equal(a, b) for a, b in zip(eta[i][1:], ref[i][1:])), i


@pytest.mark.parametrize("make", [
    lambda: assemble(barycentric_subdivide(ray_complex(2, 48))),
    lambda: assemble(barycentric_subdivide(ray_complex(2, 48)), augmented=True),
    lambda: assemble(barycentric_subdivide(simplex_complex(3))),
    lambda: assemble(barycentric_subdivide(simplex_complex(3)), augmented=True),
    lambda: assemble(ray_complex(1, 999), augmented=True),
    lambda: MatrixComplex((2, 2), (np.array([[1.0, 1.0], [1.0, -1.0]]),)),
    lambda: MatrixComplex((1, 1), (np.array([[2.0]]),)),
], ids=["sd_strip_48", "sd_strip_48_augmented", "sd_tetrahedron", "sd_tetrahedron_augmented",
        "path_999_augmented", "stalled", "pivot-2"])
def test_coreduce_matches_the_dense_row_update(make):
    # the sparse rows keep every nonzero of the dense update, bit for bit; only
    # the sign of a dense zero, which no triple holds, goes uncompared
    M = make()
    (eta, critical), (ref, ref_critical) = _coreduce(M), reference_coreduce(M)
    assert critical == ref_critical
    assert eta.keys() == ref.keys()
    for i in ref:
        (shape, r, c, v), (ref_r, ref_c, ref_v) = eta[i], _scan(ref[i])
        assert shape == ref[i].shape
        assert np.array_equal(r, ref_r) and np.array_equal(c, ref_c)
        assert (v.dtype, v.tobytes()) == (ref_v.dtype, ref_v.tobytes())


def test_contract_on_random_integer_complexes():
    rng = np.random.default_rng(16)
    outcomes = set()
    for _ in range(300):
        M = _random_integer_complex(rng)
        assert all(not (E @ D).any() for D, E in zip(M.matrices, M.matrices[1:]))
        H = cohomology_dims(M)
        result = contract(M)
        carrying = [i for i in range(1, M.top + 1) if H[i]]
        if carrying:
            assert isinstance(result, ContractionFailure), (M.dims, H)
            assert result.degree == max(carrying)
            outcomes.add("fails")
        else:
            assert isinstance(result, Contraction), (M.dims, H, result)
            assert verify_contraction(M, result).passed
            stalled = any(_coreduce(M)[1][i] for i in range(1, M.top + 1))
            outcomes.add("stalled" if stalled else "matched")
    assert outcomes == {"fails", "stalled", "matched"}


@pytest.mark.parametrize("D, ref, critical", [
    # no cell has a single facet, so the matching stalls with one critical cell in
    # each degree, and the Morse block is 1 - (-1) * 1 * 1 = 2
    (np.array([[1.0, 1.0], [1.0, -1.0]]), np.array([[0.5, 0.5], [0.5, -0.5]]), [[0], [1]]),
    (np.array([[2.0]]), np.array([[0.5]]), [[], []]),  # a pivot that is not +-1
], ids=["stalled", "pivot-2"])
def test_contract_without_a_unit_matching(D, ref, critical):
    M = MatrixComplex(D.shape[::-1], (D,))
    assert _coreduce(M)[1] == critical
    h = contract(M)
    assert isinstance(h, Contraction)
    assert np.array_equal(h.maps[1], ref)
    assert verify_contraction(M, h).max_residual == 0.0


@pytest.mark.parametrize("shape", [(4, 2), (2, 5), (3, 0), (0, 3)])
def test_contract_on_a_zero_matrix(shape):
    # every cell is critical and the Morse block is 0, so H^1 is all of degree 1
    M = MatrixComplex(shape[::-1], (np.zeros(shape),))
    result = contract(M)
    if shape[0]:
        assert result == ContractionFailure(degree=1, residual=1.0)
    else:
        assert result.maps[1].shape == (shape[1], 0)


def test_contract_on_a_999_edge_path():
    K = ray_complex(1, 999)
    assert K.simplex_count() == 1999
    M = assemble(K, augmented=True)
    h = contract(M)
    assert isinstance(h, Contraction)
    assert verify_contraction(M, h).max_residual == 0.0


def test_identity_two_term_complex():
    M = MatrixComplex((1, 1), (np.eye(1),))
    h = contract(M)
    assert isinstance(h, Contraction)
    assert verify_contraction(M, h).max_residual == 0.0


@pytest.mark.parametrize("dims, mats", [
    ((2, 3), (np.eye(2),)),          # D_0 must be 3 x 2
    ((1, 1), ()),                    # one matrix for two degrees
    ((1, 1), (np.eye(1), np.eye(1))),
])
def test_matrix_complex_rejects_bad_shapes(dims, mats):
    with pytest.raises(BadDimension):
        MatrixComplex(dims, mats)


def test_zero_homotopy_has_unit_residual():
    M = assemble(simplex_complex(2), augmented=True)
    h = Contraction({i: np.zeros((M.dims[i - 1], M.dims[i]))
                     for i in range(1, M.top + 1)})
    rep = verify_contraction(M, h)
    assert rep.max_residual == pytest.approx(1.0)
    assert rep.checked == sum(d * d for d in M.dims[1:]) == 19
    assert rep.worst == (1, 0, 0) and not rep.passed


def test_report_locates_the_worst_residual():
    M = assemble(simplex_complex(2), augmented=True)
    maps = {i: m.copy() for i, m in contract(M).maps.items()}
    maps[2][1, 2] += 0.25  # h^2 from edge (1, 2) to vertex 1
    rep = verify_contraction(M, Contraction(maps))
    assert rep.max_residual == 0.25 and not rep.passed
    assert rep.residuals == {1: 0.25, 2: 0.25, 3: 0.0}
    # the first largest entry: in degree 1, h^2 D_1 at (vertex 1, vertex 1)
    assert rep.worst == (1, 1, 1)


def _dense_report(M, maps):
    """The dense formula |D_{i-1} h^i + h^{i+1} D_i - 1|: its per-degree maxima,
    entry count and first largest entry in row-major order, NaN the largest."""
    defects = {}
    for i in range(1, M.top + 1):
        acc = M.matrix(i - 1) @ maps[i] - np.eye(M.dims[i])
        defects[i] = np.abs(acc + maps[i + 1] @ M.matrix(i) if i < M.top else acc)
    flat, worst = np.concatenate([a.ravel() for a in defects.values()]), None
    if flat.size:  # np.argmax: the first NaN, else the first largest entry
        k = int(np.argmax(flat))
        for i, a in defects.items():
            if k < a.size:
                worst = (i, *map(int, np.unravel_index(k, a.shape)))
                break
            k -= a.size
    return ({i: float(a.max(initial=0.0)) for i, a in defects.items()},
            sum(a.size for a in defects.values()), worst)


def _assert_matches_dense(M, maps, rel=0.0):
    rep = verify_contraction(M, Contraction(maps))
    residuals, checked, worst = _dense_report(M, maps)
    largest = max(residuals.values(), key=lambda r: (np.isnan(r), r))
    assert rep.residuals == pytest.approx(residuals, rel=rel, nan_ok=True)
    assert rep.max_residual == pytest.approx(largest, rel=rel, nan_ok=True)
    assert (rep.checked, rep.worst) == (checked, worst)
    return rep


def _sparse(rng, shape, values):
    return values * (rng.random(shape) < 0.4)


def _free_cells():
    # D_0 = (1, 0)^T and D_1 = ((0, 3), (0, 0)): column 0 and row 1 of D_1 are zero
    return MatrixComplex((1, 2, 2), (np.array([[1.0], [0.0]]), np.array([[0.0, 3.0], [0.0, 0.0]])))


@pytest.mark.parametrize("make", [
    lambda: assemble(simplex_complex(2), augmented=True),
    lambda: assemble(simplex_complex(3), augmented=True),
    lambda: assemble(sphere_complex(1)),
    lambda: MatrixComplex((2, 2), (np.array([[1.0, 1.0], [1.0, -1.0]]),)),
    lambda: MatrixComplex((2, 4), (np.zeros((4, 2)),)),
    _free_cells,
], ids=["tri", "tet", "circle", "stalled", "zero", "free-cells"])
def test_sparse_defect_matches_the_dense_formula(make):
    # float h sums its products in another order than BLAS, so it gets a relative
    # tolerance of about 50 float64 ulps; integer h is exact
    M, rng = make(), np.random.default_rng(18)
    shapes = {i: (M.dims[i - 1], M.dims[i]) for i in range(1, M.top + 1)}
    for _ in range(20):
        _assert_matches_dense(M, {i: _sparse(rng, s, rng.integers(-3, 4, s).astype(float))
                                  for i, s in shapes.items()})
        _assert_matches_dense(M, {i: _sparse(rng, s, rng.normal(size=s))
                                  for i, s in shapes.items()}, rel=1e-14)
    if isinstance(h := contract(M), Contraction):
        assert _assert_matches_dense(M, h.maps).max_residual == 0.0


def test_sparse_defect_breaks_ties_in_row_major_order():
    M = assemble(simplex_complex(2), augmented=True)
    h = contract(M).maps
    # h^3 = 0 leaves |h^3 D_2| = 1 on all of row 2 in degree 2, and 1 at (0, 0) in degree 3
    rep = _assert_matches_dense(M, {**h, 3: np.zeros_like(h[3])})
    assert rep.residuals == {1: 0.0, 2: 1.0, 3: 1.0} and rep.worst == (2, 2, 0)
    # h^2 = 0 leaves 1 at (1, 0), (1, 1), (2, 0) and (2, 2) in degree 1, and 1s in degree 2
    rep = _assert_matches_dense(M, {**h, 2: np.zeros_like(h[2])})
    assert rep.residuals == {1: 1.0, 2: 1.0, 3: 0.0} and rep.worst == (1, 1, 0)


def test_sparse_defect_over_several_blocks_of_rows():
    # in degree 2 the 962 x 962 defect spans several blocks of rows: a tie across a
    # block edge goes to the row-major first, and a non-finite entry in the last
    # block beats the finite maxima of the earlier ones
    M = assemble(barycentric_subdivide(ray_complex(2, 48)), augmented=True)
    h, n, rng = contract(M).maps, M.dims[2], np.random.default_rng(33)
    edge = _BLOCK // n
    assert 0 < edge < n - 10 and n * n > 4 * _BLOCK
    shapes = {i: m.shape for i, m in h.items()}
    _assert_matches_dense(M, {i: _sparse(rng, s, rng.integers(-3, 4, s).astype(float))
                              for i, s in shapes.items()})
    _assert_matches_dense(M, {i: _sparse(rng, s, rng.normal(size=s))
                              for i, s in shapes.items()}, rel=1e-14)
    tie = {i: m.copy() for i, m in h.items()}
    tie[3][edge - 1, 0] = tie[3][edge, 1] = 0.5  # |h^3 D_2| = 0.5 on rows edge - 1 and edge
    rep = _assert_matches_dense(M, tie)
    assert rep.max_residual == 0.5 and rep.worst[:2] == (2, edge - 1)
    late = {i: m.copy() for i, m in h.items()}
    late[3][n - 10, 0] = np.inf
    with np.errstate(invalid="ignore"):
        rep = _assert_matches_dense(M, late)
    assert np.isnan(rep.max_residual) and rep.worst[:2] == (2, n - 10)


def test_the_contraction_path_builds_no_dense_matrix():
    # assemble, contract and verify_contraction work on triples; `matrices` and
    # `maps` are views, built on first read, read-only
    K = barycentric_subdivide(ray_complex(2, 48))
    M = assemble(K, augmented=True)
    h = contract(M)
    assert verify_contraction(M, h).max_residual == 0.0
    assert "matrices" not in M.__dict__ and "maps" not in h.__dict__
    eta, critical = reference_coreduce(M)
    assert not any(critical)  # so h is eta
    assert np.array_equal(M.matrices[0], np.ones((M.dims[1], 1)))
    for D, ref in zip(M.matrices[1:], reference_coboundaries(K), strict=True):
        assert np.array_equal(D, ref)
    assert h.maps.keys() == eta.keys()
    for i, ref in eta.items():
        assert np.array_equal(h.maps[i], ref)
    for m in (*M.matrices, *h.maps.values()):
        with pytest.raises(ValueError):
            m[0, 0] = 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparse_defect_fails_on_non_finite_entries(bad):
    # every line of D that a bad entry meets holds a zero, and column 0 and row 1
    # of D_1 hold nothing else: there only 0 * bad, as in a dense product, shows it
    M = _free_cells()
    base = {1: np.array([[1.0, 0.0]]), 2: np.zeros((2, 2))}
    for i, ix in [(1, (0, 0)), (1, (0, 1)), (2, (0, 0)), (2, (1, 0)), (2, (1, 1))]:
        maps = {k: m.copy() for k, m in base.items()}
        maps[i][ix] = bad
        with np.errstate(invalid="ignore"):
            rep = _assert_matches_dense(M, maps)
        assert not rep.passed and not rep.max_residual <= 1e-8


def test_report_with_nothing_compared_fails():
    # D_0 maps one cell to none: there is a degree 1, but it has no entries
    M = MatrixComplex((1, 0), (np.zeros((0, 1)),))
    rep = verify_contraction(M, Contraction({1: np.zeros((1, 0))}))
    assert rep.checked == 0 and rep.worst is None
    assert rep.max_residual == 0.0 and not rep.passed


@pytest.mark.parametrize("maps", [
    {1: np.zeros((1, 1))},  # once broadcast against the identity
    {1: np.zeros((2, 2))},  # once numpy's matmul ValueError
    {1: np.zeros((2, 1))},
    {1: np.zeros((1, 2)), 2: np.zeros((2, 1))},  # no degree 2
    {0: np.zeros((1, 1)), 1: np.zeros((1, 2))},
])
def test_verification_rejects_wrong_shaped_maps(maps):
    M = MatrixComplex((1, 2), (np.ones((2, 1)),))
    with pytest.raises(BadDimension):
        verify_contraction(M, Contraction(maps))


def test_contraction_on_a_star_is_the_cone_operator():
    # with the apex a the star's lowest vertex, the matching pairs each sigma
    # without a with a * sigma, so h^i[sigma, a * sigma] = D_{i-1}[a * sigma, sigma]
    # and h is 0 elsewhere
    K = barycentric_subdivide(ray_complex(2, 2))
    S = star(K, 0)
    assert min(S.vertices) == 0
    M = assemble(S, augmented=True)
    h = contract(M)
    assert isinstance(h, Contraction)
    cells = [[()]] + [list(S.simplices_of_dim(k)) for k in range(S.dim + 1)]
    for i in range(1, M.top + 1):
        index = {s: n for n, s in enumerate(cells[i])}
        cone = np.zeros((M.dims[i - 1], M.dims[i]))
        for r, sigma in enumerate(cells[i - 1]):
            if 0 not in sigma:
                c = index[tuple(sorted((0, *sigma)))]
                cone[r, c] = M.matrix(i - 1)[c, r]
        assert np.array_equal(h.maps[i], cone)
    # with the apex at the highest vertex the greedy order gives another valid h
    S = star(K, max(K.vertices))
    M = assemble(S, augmented=True)
    assert verify_contraction(M, contract(M)).max_residual == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_complex_rejects_non_finite_entries(bad):
    # the defect meets D only where D is nonzero, so a NaN in D must not get that far
    with pytest.raises(ValueError):
        MatrixComplex((1, 2), (np.array([[1.0], [bad]]),))


def test_matrix_complex_keeps_read_only_copies():
    D = np.array([[1.0, -1.0]])
    M = MatrixComplex((2, 1), (D,))
    D[0, 0] = 5.0
    assert np.array_equal(M.matrix(0), [[1.0, -1.0]])
    with pytest.raises(ValueError):
        M.matrix(0)[0, 0] = 5.0
    M = assemble(simplex_complex(1))
    assert np.array_equal(M.matrix(0), [[-1.0, 1.0]])
    # a replaced matrix gets its own pattern, not the one built for assemble's
    M = dataclasses.replace(M, matrices=(np.array([[1.0, 0.0]]),))
    h = Contraction({1: np.array([[1.0], [0.0]])})
    assert verify_contraction(M, h).max_residual == 0.0


def test_verification_rejects_a_contraction_with_missing_maps():
    # the circle carries H^1, so a contraction that checks nothing must not pass
    M = assemble(sphere_complex(1))
    with pytest.raises(BadDegree):
        verify_contraction(M, Contraction({}))
    M = assemble(simplex_complex(2), augmented=True)
    h = contract(M)
    with pytest.raises(BadDegree):
        verify_contraction(M, Contraction({i: h.maps[i] for i in (1, 2)}))
    # three isolated points carry H^0 = 3, and there is no degree >= 1 to check
    M = assemble(build_complex({0: (0.0,), 1: (1.0,), 2: (2.0,)}, [(0,), (1,), (2,)]))
    assert M.top == 0
    with pytest.raises(BadDegree):
        verify_contraction(M, contract(M))


def test_size_refusal():
    K = ray_complex(1, 1500)  # 3001 simplices
    with pytest.raises(ValueError):
        assemble(K)


@pytest.mark.parametrize("i", [-1, 2])
def test_matrix_outside_the_stored_range_raises(i):
    M = assemble(simplex_complex(2))  # D_0 and D_1; top = 2
    with pytest.raises(BadDimension):
        M.matrix(i)


def test_exact_rank_matches_sympy():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m, n = rng.integers(1, 12, size=2)
        A = rng.integers(-3, 4, size=(m, n)) * (rng.random((m, n)) < 0.6)
        if m > 2:  # a row dependent on two others
            a, b, r = rng.choice(m, size=3, replace=False)
            A[r] = 2 * A[a] - A[b]
        if n > 1:  # a column dependent on another
            A[:, -1] = -3 * A[:, 0]
        D = A.astype(float)
        zeros = np.argwhere(A == 0)
        if len(zeros):  # a rounding-level entry counts as zero
            D[tuple(zeros[rng.integers(len(zeros))])] = 1e-17
        assert _exact_rank(D) == sympy.Matrix(A.tolist()).rank()
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert _exact_rank(np.zeros(shape)) == 0


@pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
def test_rational_oracle_on_a_645_simplex_strip(augmented):
    K = barycentric_subdivide(ray_complex(2, 16))
    assert K.simplex_count() == 645
    M = assemble(K, augmented=augmented)
    t0 = time.perf_counter()
    exact = rational_cohomology_dims(M)
    assert time.perf_counter() - t0 < 1.0
    assert exact == cohomology_dims(M) == ([0, 0, 0, 0] if augmented else [1, 0, 0])


def test_matrix_complex_equality_compares_dims_then_matrices():
    M = assemble(ray_complex(1, 3))
    assert M == assemble(ray_complex(1, 3))
    assert M == MatrixComplex(M.dims, M.matrices)  # scanned against assembled
    changed = [np.array(D) for D in M.matrices]
    changed[-1][0, 0] += 1.0
    other = MatrixComplex(M.dims, tuple(changed))
    assert M != other and other != M
    assert M != assemble(ray_complex(1, 3), augmented=True)  # other dims
    assert M != "not a complex"


def test_contraction_equality_compares_the_maps():
    M = assemble(simplex_complex(2), augmented=True)
    h = contract(M)
    assert h == contract(M)
    maps = {i: np.array(m) for i, m in h.maps.items()}
    assert h == Contraction(maps)
    i = max(maps)
    maps[i][0, 0] += 1.0
    assert h != Contraction(maps) and Contraction(maps) != h
    assert h != Contraction({j: m for j, m in h.maps.items() if j != i})  # one map fewer
