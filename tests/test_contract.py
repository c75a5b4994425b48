import time

import numpy as np
import pytest
import sympy

from lpiforms.complexes import barycentric_subdivide, build_complex, ray_complex
from lpiforms.contract import (
    RANK_RTOL,
    Contraction,
    ContractionFailure,
    MatrixComplex,
    _exact_rank,
    _pinv,
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
    # the largest entry of the harmonic projector: 1/3 on the triangle's
    # three edges, 1/4 on the tetrahedron boundary's four faces
    assert res1.residual == pytest.approx(1 / 3, rel=1e-12)
    res2 = contract(assemble(sphere_complex(2)))
    assert isinstance(res2, ContractionFailure)
    assert res2.degree == 2
    assert res2.residual == pytest.approx(1 / 4, rel=1e-12)


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
    M = make()
    h = contract(M)
    assert isinstance(h, Contraction)
    for i in range(1, M.top + 1):
        ref = np.linalg.pinv(M.matrix(i - 1), rcond=RANK_RTOL)
        assert np.abs(h.maps[i] - ref).max() <= 1e-10


def test_pinv_matches_svd_on_rank_deficient_integer_matrices():
    rng = np.random.default_rng(12)
    shapes = set()
    for _ in range(300):
        m, n = (int(x) for x in rng.integers(1, 16, size=2))
        r = int(rng.integers(0, min(m, n) + 1))
        A = rng.integers(-2, 3, size=(m, r)) @ rng.integers(-2, 3, size=(r, n))
        D = A.astype(float)
        shapes.add("tall" if m > n else "wide" if m < n else "square")
        ref = np.linalg.pinv(D, rcond=RANK_RTOL)
        assert np.abs(_pinv(D) - ref).max() <= 1e-10
    assert shapes == {"tall", "wide", "square"}
    for shape in ((4, 2), (2, 5), (0, 0), (0, 3), (3, 0)):  # all-zero and empty
        P = _pinv(np.zeros(shape))
        assert P.shape == shape[::-1] and not P.any()


def test_contract_on_a_999_edge_path():
    # the longest path under SIZE_LIMIT, and the closest to the Gram cutoff of
    # the complexes tested: the smallest eigenvalue kept for D_1 is 2.5e-6 w_max
    K = ray_complex(1, 999)
    assert K.simplex_count() == 1999
    M = assemble(K, augmented=True)
    h = contract(M)
    assert isinstance(h, Contraction)
    assert verify_contraction(M, h).max_residual <= 1e-10


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
    assert verify_contraction(M, h).max_residual == pytest.approx(1.0)


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
