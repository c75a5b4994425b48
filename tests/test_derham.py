import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from lpiforms import derham
from lpiforms.cochains import Cochain, coboundary, indicator
from lpiforms.complexes import (PiSequence, barycentric_subdivide, build_complex, ray_complex,
                                skeleton)
from lpiforms.derham import (
    derham_map,
    verify_split,
    verify_stokes,
    whitney,
)
from lpiforms.errors import BadDegree, BadDimension, DegenerateSimplex
from lpiforms.nontrivial import verify_nontriviality
from lpiforms.polyform import (
    PolyForm,
    _by_dimension,
    _dense,
    _face_table,
    monomial_integral,
    pullback,
    selection,
    t_add,
    t_d,
    t_scale,
)

from conftest import (COCHAIN_COMPLEXES, TRIANGLE_EDGE_VERTEX, reference_coboundary,
                      reference_whitney, regular_simplex, simplex_complex)


def test_whitney_vertex_is_barycentric_function():
    K = simplex_complex(1)
    w = whitney(indicator(K, (1,)))
    # W(chi_{v1}) = t_1 on the edge
    assert w.piece((0, 1)) == {((1,), ()): 1.0}
    assert w.evaluate((0, 1), np.array([0.25]))[()] == pytest.approx(0.25)


def test_whitney_partition_of_unity():
    K = simplex_complex(2)
    total = PolyForm.zero(K, 0)
    for v in K.simplices_of_dim(0):
        total = total + whitney(indicator(K, v))
    assert total.piece((0, 1, 2)) == {((0, 0), ()): 1.0}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_plain_integral_is_retraction(k):
    K = regular_simplex(k)
    sigma = tuple(range(k + 1))
    w = whitney(indicator(K, sigma))
    assert w.integrate(sigma, weighted=False) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_weighted_integral_constant(k):
    K = regular_simplex(k)
    sigma = tuple(range(k + 1))
    w = whitney(indicator(K, sigma))
    expected = math.sqrt(k + 1.0) / math.sqrt(2.0**k)
    assert w.integrate(sigma, weighted=True) == pytest.approx(expected, abs=1e-13)


def test_whitney_diagonal_is_factorial_times_volume():
    # verify_split rescales by k! vol(sigma) in closed form; the weighted
    # integral of each Whitney indicator is the reference, on criterion 2's
    # complexes and on a non-regular tetrahedron
    tri2 = barycentric_subdivide(barycentric_subdivide(build_complex(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, math.sqrt(3) / 2)}, [(0, 1, 2)])))
    tet1 = barycentric_subdivide(simplex_complex(3))
    tet = build_complex({0: (0.0, 0.0, 0.0), 1: (2.0, 0.0, 0.0), 2: (0.5, 1.5, 0.0),
                         3: (1 / 3, 1 / 4, 5 / 4)}, [(0, 1, 2, 3)])
    for K in (tri2, tet1, tet):
        for k in range(K.dim + 1):
            for s in K.simplices_of_dim(k):
                want = math.factorial(k) * K.volume(s)
                assert whitney(indicator(K, s)).integrate(s) == pytest.approx(
                    want, rel=1e-14, abs=0.0), (k, s)


def test_retraction_on_irregular_complex(subdivided_triangle):
    # metric-free integral splits on non-regular geometry too
    K = subdivided_triangle
    rng = np.random.default_rng(2)
    for k in (0, 1):
        sig = K.simplices_of_dim(k)
        c = Cochain(k, {s: float(rng.normal()) for s in sig}, K)
        image = derham_map(whitney(c), K, k, weighted=False)
        for s in sig:
            assert image(s) == pytest.approx(c(s), abs=1e-12)


def test_verify_split_report(subdivided_triangle):
    rep = verify_split(subdivided_triangle, 1, samples=25, seed=4)
    assert rep.max_identity_error <= 1e-10
    assert rep.sample_count == 25
    assert [f.name for f in fields(rep)] == ["max_identity_error", "sample_count"]
    K = subdivided_triangle
    stokes = verify_stokes(whitney(indicator(K, K.simplices_of_dim(1)[0])), K)
    assert [f.name for f in fields(stokes)] == ["max_stokes_error", "sample_count"]


def _split_per_sample(K, k, samples, seed):
    """verify_split's error, computed the direct way: the Whitney / de Rham
    pipeline on each whole sample, with the same draws from the same sampler."""
    sigmas = K.simplices_of_dim(k)
    draws = derham._draw(np.random.default_rng(seed), len(sigmas), min(4, len(sigmas)), samples)
    max_err = 0.0
    for support, values in zip(*draws):
        vals = {sigmas[i]: float(v) for i, v in zip(support, values)}
        scaled = Cochain(k, {s: v / (math.factorial(k) * K.volume(s)) for s, v in vals.items()}, K)
        image = derham.derham_map(derham.whitney(scaled), K, k, weighted=True)
        max_err = max(max_err, *(abs(image(s) - vals.get(s, 0.0)) for s in sigmas))
    return max_err


def _patch_kernel(monkeypatch, error):
    """Replace the Whitney kernel by the exact one applied to each input
    column c plus error(c, k-simplices), a linear function of c given as a
    cochain.  verify_split and whitney both call the kernel, so the error
    reaches verify_split's batch and `_split_per_sample` alike."""
    exact = derham._whitney

    def patched(K, k, rows, cols, vals):
        sig = K.simplices_of_dim(k)
        batch = [], [], []
        for j in dict.fromkeys(cols.tolist()):
            c = Cochain(k, {sig[r]: v for r, v in zip(rows[cols == j].tolist(), vals[cols == j])}, K)
            c = c + Cochain(k, error(c, sig), K)
            batch[0].extend(K._rows(k, c.values).tolist())
            batch[1].extend([j] * len(c.values))
            batch[2].extend(c.values.values())
        yield from exact(K, k, *(np.array(a, dtype=t) for a, t in zip(batch, (int, int, float))))

    monkeypatch.setattr(derham, "_whitney", patched)


LINEAR_ERRORS = {
    "exact": lambda c, sig: {},
    # the i-th k-simplex's value grows by 1e-6 * i: a diagonal error
    "skew": lambda c, sig: {s: 1e-6 * i * c(s) for i, s in enumerate(sig)},
    # part of each value lands on the next simplex: an off-diagonal error,
    # seen only on rows outside the sample's support
    "shift": lambda c, sig: {sig[(i + 1) % len(sig)]: 1e-6 * c(s) for i, s in enumerate(sig)},
}


@pytest.mark.parametrize("error", LINEAR_ERRORS)
def test_verify_split_matches_the_per_sample_pipeline(subdivided_triangle, monkeypatch, error):
    # under any linear kernel the batch of drawn indicators and the
    # per-sample pipeline report the same error, and a perturbed kernel's
    # error shows
    _patch_kernel(monkeypatch, LINEAR_ERRORS[error])
    for K in (subdivided_triangle, barycentric_subdivide(simplex_complex(3))):
        for k in range(K.dim + 1):
            rep = verify_split(K, k, samples=30, seed=11)
            assert rep.sample_count == 30
            want = _split_per_sample(K, k, 30, 11)
            assert abs(rep.max_identity_error - want) <= 1e-14, (K.dim, k)
            assert (rep.max_identity_error > 1e-8) == (error != "exact"), (K.dim, k)


@pytest.mark.parametrize("scale", [1e-8, -1.0], ids=["off_by_1e-8", "dropped"])
def test_verify_split_catches_one_wrong_face(subdivided_triangle, monkeypatch, scale):
    # the kernel gets the last k-simplex's value times 1 + scale; dropped, its
    # column's image is all zeros, so its residual is the sample's value alone
    K = subdivided_triangle
    for k in range(K.dim + 1):
        bad = K.simplices_of_dim(k)[-1]
        _patch_kernel(monkeypatch, lambda c, sig: {bad: scale * c(bad)})
        assert verify_split(K, k, samples=25, seed=4).max_identity_error > 1e-10, k


def test_verify_split_runs_the_pipeline_once_per_drawn_simplex(monkeypatch):
    # one kernel call per verify_split, with one column for each drawn
    # simplex: its rescaled indicator
    K = barycentric_subdivide(simplex_complex(3))
    samples, seed = 60, 5
    calls = []
    exact = derham._whitney

    def counted(K, k, rows, cols, vals):
        calls.append((rows, cols, vals))
        return exact(K, k, rows, cols, vals)

    monkeypatch.setattr(derham, "_whitney", counted)
    for k in range(K.dim + 1):
        sigmas = K.simplices_of_dim(k)
        rng = np.random.default_rng(seed)
        support, _ = derham._draw(rng, len(sigmas), min(4, len(sigmas)), samples)
        drawn = {sigmas[i] for i in support.ravel().tolist()}
        calls.clear()
        assert verify_split(K, k, samples, seed).max_identity_error <= 1e-10
        assert len(drawn) < 4 * samples
        assert len(calls) == 1, k
        rows, cols, vals = calls[0]
        assert sorted(cols.tolist()) == list(range(len(drawn))), k
        assert sorted(sigmas[r] for r in rows.tolist()) == sorted(drawn), k
        want = [1.0 / (math.factorial(k) * K.volume(sigmas[r])) for r in rows.tolist()]
        assert vals.tolist() == want, k


def test_verify_split_memory_grows_with_the_entries():
    # an n_k x columns array of floats would take 8 * n_k * columns bytes,
    # about 32 MB here for up to 400 drawn simplices; the batch keeps only
    # its entries, and must stay below an eighth of that
    K = barycentric_subdivide(ray_complex(2, 500))
    n_k, columns = len(K.simplices_of_dim(1)), 4 * 100
    tracemalloc.start()
    try:
        assert verify_split(K, 1, 100).max_identity_error <= 1e-10
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_k * columns, peak


def test_draw_gives_distinct_supports_and_repeats_with_the_seed():
    for n, size in [(6, 3), (10_002, 4), (5, 4), (9, 1)]:
        support, vals = derham._draw(np.random.default_rng(8), n, size, 500)
        assert support.shape == vals.shape == (500, size)
        assert all(len(set(row)) == size for row in support.tolist()), n
        assert 0 <= support.min() and support.max() < n
        again = derham._draw(np.random.default_rng(8), n, size, 500)
        assert np.array_equal(support, again[0]) and np.array_equal(vals, again[1])


def test_draw_reaches_every_subset():
    # Floyd's algorithm draws each size-subset with the same probability; in
    # 2000 draws each of the C(6, 3) = 20 subsets is expected 100 times
    support, _ = derham._draw(np.random.default_rng(3), 6, 3, 2000)
    counts = Counter(tuple(sorted(row)) for row in support.tolist())
    assert set(counts) == set(itertools.combinations(range(6), 3))
    assert 50 < min(counts.values()) and max(counts.values()) < 150, counts


def test_draw_takes_the_whole_set_when_n_is_at_most_4(triangle):
    # with size = n every step's j is n - size + i = i, so each sample is all of 0..n-1
    for n in range(1, 5):
        support, _ = derham._draw(np.random.default_rng(n), n, n, 50)
        assert (np.sort(support, axis=1) == np.arange(n)).all(), n
    for k in range(3):  # 3, 3 and 1 simplices: each sample is the whole set
        assert verify_split(triangle, k, samples=20, seed=k).max_identity_error <= 1e-10


@pytest.mark.parametrize("weighted", [False, True])
def test_derham_of_whitney_is_linear(weighted):
    # verify_split sums cached indicator images, which is sound because
    # derham_map o whitney is linear; supports c1 and c2 overlap
    K = barycentric_subdivide(simplex_complex(3))
    rng = np.random.default_rng(17)
    a, b = 1.7, -0.6
    for k in range(K.dim + 1):
        sig = K.simplices_of_dim(k)
        c1 = Cochain(k, {s: float(rng.normal()) for s in sig[: 2 * len(sig) // 3]}, K)
        c2 = Cochain(k, {s: float(rng.normal()) for s in sig[len(sig) // 3:]}, K)
        both = derham_map(whitney(a * c1 + b * c2), K, k, weighted)
        one, two = (derham_map(whitney(c), K, k, weighted) for c in (c1, c2))
        scale = max(abs(v) for v in both.values.values())
        for s in sig:
            assert abs(both(s) - (a * one(s) + b * two(s))) <= 1e-14 * scale, (k, s)


@pytest.mark.parametrize("k", [-1, 3])
def test_verify_split_rejects_a_degree_outside_the_complex(subdivided_triangle, k):
    with pytest.raises(BadDimension):
        verify_split(subdivided_triangle, k, samples=3)


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_split_rejects_no_samples(subdivided_triangle, samples):
    with pytest.raises(ValueError, match="samples"):
        verify_split(subdivided_triangle, 1, samples=samples)


def test_verify_split_rejects_a_complex_without_k_simplices(monkeypatch):
    # the empty complex has dimension 0 but no vertex to draw a cochain on
    def no_sampling(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(BadDegree, match="no 0-simplices"):
        verify_split(build_complex({}, []), 0, 3)


def test_verify_split_rejects_a_simplex_of_zero_volume():
    # the weighted rescaling divides by k! vol(sigma)
    collinear = build_complex({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}, [(0, 1, 2)])
    with pytest.raises(DegenerateSimplex, match="zero volume"):
        verify_split(collinear, 2, 3)
    assert verify_split(collinear, 1, 3).max_identity_error <= 1e-12  # its edges are fine


def test_stokes_on_tetrahedron():
    K = simplex_complex(3)
    rng = np.random.default_rng(7)
    for k in (0, 1, 2):
        terms = {}
        for _ in range(4):
            exps = tuple(int(rng.integers(0, 3)) for _ in range(3))
            idx = tuple(sorted(rng.choice(3, size=k, replace=False) + 1))
            terms[(exps, idx)] = float(rng.normal())
        om = PolyForm(k, K, {(0, 1, 2, 3): terms})
        assert verify_stokes(om, K).max_stokes_error <= 1e-12


def test_stokes_via_whitney_on_subdivision(subdivided_triangle):
    K = subdivided_triangle
    rng = np.random.default_rng(8)
    for k in (0, 1):
        sig = K.simplices_of_dim(k)
        c = Cochain(k, {s: float(rng.normal()) for s in sig}, K)
        om = whitney(c)
        assert verify_stokes(om, K).max_stokes_error <= 1e-12
        # and the de Rham image of d omega is the coboundary of c
        lhs = derham_map(om.d(), K, k + 1, weighted=False)
        rhs = coboundary(c)
        for s in K.simplices_of_dim(k + 1):
            assert lhs(s) == pytest.approx(rhs(s), abs=1e-12)


def _random_pieces(rng, tops, k):
    pieces = {}
    for T in tops:
        m = len(T) - 1
        terms = {}
        for _ in range(3):
            exps = tuple(int(rng.integers(0, 3)) for _ in range(m))
            idx = tuple(sorted(int(i) + 1 for i in rng.choice(m, size=k, replace=False)))
            terms[(exps, idx)] = float(rng.normal())
        pieces[T] = terms
    return pieces


def test_face_integrals_match_the_trace_of_the_first_carrier(subdivided_triangle):
    # a non-conforming form: each face takes trace_on's piece, the first
    # carrier that has one, and integrates its dt_1..dt_k terms
    S = subdivided_triangle
    # S plus a triangle on new vertices, whose simplices the form never sees
    verts = dict(S.vertices)
    verts.update({100: (3.0, 0.0), 101: (4.0, 0.0), 102: (3.5, 1.0)})
    big = build_complex(verts, list(S.maximal_simplices()) + [(100, 101, 102)])
    rng = np.random.default_rng(41)
    for k in (0, 1, 2):
        # every triangle but the last has a piece, so some faces have two
        # pieces to choose from and some only one
        om = PolyForm(k, S, _random_pieces(rng, S.maximal_simplices()[:-1], k))
        full = tuple(range(1, k + 1))
        for weighted in (False, True):
            image = derham_map(om, big, k, weighted=weighted)
            for sigma in big.simplices_of_dim(k):
                want = 0.0
                if S.has_simplex(sigma):
                    plain = sum(c * monomial_integral(e, k)
                                for (e, I), c in om.trace_on(sigma).items() if I == full)
                    want = plain * S.volume(sigma) if weighted else plain / math.factorial(k)
                assert image(sigma) == pytest.approx(want, rel=1e-13, abs=1e-15), sigma
                flipped = sigma[::-1]
                sign = -1.0 if k % 4 in (1, 2) else 1.0  # the reversal's parity
                assert om.integrate(flipped, weighted=weighted) == pytest.approx(
                    sign * want, rel=1e-13, abs=1e-15)


def test_whitney_is_the_pulled_back_reference_form():
    K = barycentric_subdivide(simplex_complex(3))
    rng = np.random.default_rng(43)
    for k in range(4):
        fact = float(math.factorial(k))
        reference = {}
        for i in range(k + 1):
            exps = tuple(int(q == i) for q in range(k + 1))
            reference[(exps, tuple(q for q in range(k + 1) if q != i))] = (-1) ** i * fact
        c = Cochain(k, {s: float(rng.normal()) for s in K.simplices_of_dim(k)}, K)
        want = {}
        for sigma, val in c.values.items():
            for T in K.carriers[sigma]:
                want[T] = t_add(want.get(T, {}), t_scale(pullback(reference, selection(sigma, T)), val))
        got = whitney(c)
        assert set(got.pieces) == {T for T, p in want.items() if p}
        for T, terms in got.pieces.items():
            assert set(terms) == set(want[T])
            for key, v in terms.items():
                assert v == pytest.approx(want[T][key], rel=1e-14, abs=1e-15)


def test_verify_stokes_rejects_a_form_of_top_degree():
    # the 1-form on one edge has no 2-simplex to check against
    K = simplex_complex(1)
    om = PolyForm(1, K, {(0, 1): {((0,), (1,)): 1.0}})
    with pytest.raises(BadDegree):
        verify_stokes(om, K)


def test_derham_map_rejects_a_degree_other_than_the_form_degree():
    K = simplex_complex(1)
    om = PolyForm(1, K, {(0, 1): {((0,), (1,)): 1.0}})
    for k in (0, 2):
        with pytest.raises(BadDimension):
            derham_map(om, K, k)


# The dict implementations the face-table kernels replaced, kept as references.

def reference_face_integrals(omega, tops, weighted):
    """The k-face integrals of the pieces on tops, keyed in ascending vertex
    order; a face shared by several takes the first one's value."""
    k = omega.degree
    rows = {}
    for group in _by_dimension(tops):
        union, dense = _dense([omega.pieces[T] for T in group])
        tables = np.array([_face_table(key) for key in union])
        rows.update(zip(group, (dense @ tables).tolist()))
    out = {}
    for T in reversed(tops):  # so that the first piece's value is the one kept
        out.update(zip(itertools.combinations(T, k + 1), rows[T]))
    if weighted and out:
        vol, _, at = omega.complex._geometry(list(out))
        return dict(zip(out, (np.fromiter(out.values(), float) * vol[at]).tolist()))
    return {s: v / math.factorial(k) for s, v in out.items()}


def reference_derham_map(omega, K, k, weighted=False):
    carriers = omega.complex.carriers
    values = reference_face_integrals(
        omega, [T for T in sorted(omega.pieces) if carriers.get(T) == (T,)], weighted)
    return Cochain(k, {s: v for s, v in values.items() if K.has_simplex(s)}, K)


def reference_d(omega):
    """d piece by piece through `t_d`, with the pieces whose d is 0 dropped."""
    pieces = {T: t_d(p, len(T) - 1) for T, p in omega.pieces.items()}
    return PolyForm(omega.degree + 1, omega.complex, pieces)


def reference_stokes_error(omega, K):
    k = omega.degree
    lhs = reference_derham_map(reference_d(omega), K, k + 1)
    rhs = reference_coboundary(reference_derham_map(omega, K, k))
    return max(abs(lhs(s) - rhs(s)) for s in K.simplices_of_dim(k + 1))


def _whitney_forms(K, k, rng):
    """W(c) of a key-ordered k-cochain c, and W(c0) ^ W(c) where every top
    has dimension k or more (the product is of degree 2)."""
    c, c0 = (Cochain(j, {s: float(rng.normal()) for s in K.simplices_of_dim(j)}, K)
             for j in (k, 0))
    forms = [whitney(c)]
    if all(len(T) > k for T in K.maximal_simplices()):
        forms.append(whitney(c0).wedge(forms[0]))
    return forms


@pytest.mark.parametrize("case", ["strip_4", "strip_48", "tetrahedron", "mixed"])
def test_derham_map_equals_the_face_integrals_reference(case):
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(63)
    for k in range(K.dim + 1):
        for om in _whitney_forms(K, k, rng):
            for weighted in (False, True):
                assert derham_map(om, K, k, weighted).values == reference_derham_map(
                    om, K, k, weighted).values, (k, weighted)
            if k < K.dim:  # into a skeleton of the form's complex
                S = skeleton(K, K.dim - 1)
                assert derham_map(om, S, k).values == reference_derham_map(om, S, k).values


def _cochains(K, k, rng):
    """A key-ordered k-cochain with a value on every k-simplex, one with a
    value on about a third of them, and the second in a shuffled order."""
    sig = K.simplices_of_dim(k)
    full = Cochain(k, {s: float(rng.normal()) for s in sig}, K)
    sparse = Cochain(k, {s: float(rng.normal()) for s in sig if rng.random() < 1 / 3}, K)
    items = list(sparse.values.items())
    return full, sparse, Cochain(k, dict(items[i] for i in rng.permutation(len(items))), K)


@pytest.mark.parametrize("case", COCHAIN_COMPLEXES)
def test_whitney_equals_the_reference_loop(case):
    # the kernel sums each piece in ascending face position, the order the
    # loop meets a key-ordered cochain's faces, so its pieces are bit for bit
    # the loop's; in another insertion order the loop sums in another order
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(66)
    for k in range(K.dim + 1):
        *ordered, shuffled = _cochains(K, k, rng)
        for c in ordered:
            assert whitney(c).pieces == reference_whitney(c).pieces, k
            # built from the layout on first read: by dimension and key, each
            # piece's terms in the order of its dimension's term keys
            form = whitney(c)
            assert list(form.pieces) == sorted(form.pieces, key=lambda T: (len(T), T)), k
            order = {(m, key): i for m, _, union, _ in form._layout() for i, key in enumerate(union)}
            for T, p in form.pieces.items():
                assert [order[len(T) - 1, key] for key in p] == sorted(
                    order[len(T) - 1, key] for key in p), (k, T)
        got, want = whitney(shuffled).pieces, reference_whitney(shuffled).pieces
        assert got.keys() == want.keys(), k
        scale = max((abs(v) for p in want.values() for v in p.values()), default=0.0)
        for T, p in want.items():
            assert got[T].keys() == p.keys(), (k, T)
            assert max(abs(got[T][key] - v) for key, v in p.items()) <= 1e-15 * scale, (k, T)


def test_the_array_readers_build_no_view():
    # the incidence maps and a Whitney form's pieces are built on first read,
    # and neither the counterexample on its default family nor the form
    # layer on a subdivided strip reads them
    rep = verify_nontriviality(PiSequence((2.0, 4.0), 1), 0.1, [10**6])
    K = barycentric_subdivide(host := ray_complex(2, 8))
    rng = np.random.default_rng(3)
    for k in range(K.dim + 1):
        c = Cochain(k, {s: float(rng.normal()) for s in K.simplices_of_dim(k)}, K)
        form = whitney(c)
        for weighted in (False, True):
            derham_map(form, K, k, weighted)
        if k < K.dim:
            verify_stokes(form, K)
            coboundary(c)
        form.lp_norm(2.0)
        form.omega_pi_norm(PiSequence((2.0,) * (K.dim + 1), K.dim))
        form.d().lp_norm(2.0)
        assert "pieces" not in vars(form) and "pieces" not in vars(form.d()), k
    for L in (rep.family.subdivided, host, K):
        assert not {"cofaces", "carriers"} & vars(L).keys()
    assert form.pieces and K.carriers and "pieces" in vars(form) and "carriers" in vars(K)


@pytest.mark.parametrize("case", COCHAIN_COMPLEXES)
def test_a_whitney_form_integrates_as_its_pieces_rebuilt_from_dicts(case):
    # whitney hands its layout to the form; the same pieces as dicts lay
    # themselves out through _dense, to the same arrays and the same results
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(67)
    for k in range(K.dim + 1):
        for c in _cochains(K, k, rng):
            form = whitney(c)
            rebuilt = PolyForm(k, K, dict(form.pieces))
            for (m, rows, union, dense), want in zip(form._layout(), rebuilt._layout(), strict=True):
                assert (m, union) == want[::2] and np.array_equal(rows, want[1]), k
                assert dense.tobytes() == want[3].tobytes() and not dense.flags.writeable, k
            for weighted in (False, True):
                assert derham_map(form, K, k, weighted).values == derham_map(
                    rebuilt, K, k, weighted).values, k
            if k < K.dim:
                assert verify_stokes(form, K) == verify_stokes(rebuilt, K), k
            assert [form.lp_norm(p) for p in (2.0, 3.0)] == [rebuilt.lp_norm(p) for p in (2.0, 3.0)]


def _integer_pieces(rng, K, k):
    """Random integer terms on about half of the simplices of dimension k or
    more, maximal or not."""
    simplices = [T for m in range(k, K.dim + 1) for T in K.simplices_of_dim(m) if rng.random() < 0.5]
    return {T: {key: float(rng.integers(-9, 10)) for key in p}
            for T, p in _random_pieces(rng, simplices, k).items()}


@pytest.mark.parametrize("case", COCHAIN_COMPLEXES)
def test_d_equals_the_piecewise_reference(case):
    # d multiplies each dimension's coefficients by the term keys' unit
    # derivatives; on Whitney forms (linear, so every product is exact) and on
    # integer coefficients its pieces are t_d's bit for bit, and a piece whose
    # d is 0 is dropped, as is a key that is 0 on every piece
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(68)
    for k in range(K.dim + 1):
        forms = [whitney(c) for c in _cochains(K, k, rng)]
        forms += [PolyForm(k, K, _integer_pieces(rng, K, k)) for _ in range(3)]
        if k == 0:  # d is 0 on every piece
            forms.append(PolyForm.constant(K, 2.0))
        for om in forms:
            d = om.d()
            assert d.degree == k + 1 and d.pieces == reference_d(om).pieces, k
            assert all(d.pieces.values()) and d.d().pieces == {}, k
            for _, rows, _, dense in d._layout():
                assert not rows.flags.writeable and not dense.flags.writeable
                assert (dense != 0.0).any(axis=0).all(), k


@pytest.mark.parametrize("case", COCHAIN_COMPLEXES)
def test_integrate_is_the_derham_map_on_every_simplex(case):
    # integrate pulls `trace_on` back to the simplex, derham_map sums the face
    # tables of the same first carrier: the same value up to rounding of the
    # cochain's largest one, since a value that cancels to near 0 keeps an
    # absolute error; conforming or not, weighted or not
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(69)
    off = tuple(range(len(K.vertices), len(K.vertices) + K.dim + 1))
    for k in range(K.dim + 1):
        forms = _whitney_forms(K, k, rng)
        forms.append(PolyForm(k, K, _random_pieces(
            rng, [T for T in K.maximal_simplices() if len(T) > k], k)))
        for om, weighted in itertools.product(forms, (False, True)):
            want = derham_map(om, K, k, weighted)
            scale = max(map(abs, want.values.values()), default=0.0)
            for s in K.simplices_of_dim(k):
                assert abs(om.integrate(s, weighted) - want(s)) <= 1e-14 * scale, (k, s)
            assert om.integrate(off[:k + 1], weighted) == 0.0


def test_derham_map_takes_the_first_carrier_in_key_order():
    # a discontinuous 0-form, constant on each maximal simplex; a vertex
    # takes the value of its first carrier in key order, whatever the
    # pieces' insertion order or dimension: vertex 1 lies on the edge
    # (0, 1) before the triangle (1, 2, 3), vertex 3 on the triangle before
    # the edge (3, 4), and vertices 2, 3 on (1, 2, 3) before (2, 3, 5)
    K = build_complex({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (2.0, 0.0),
                       4: (3.0, 0.0), 5: (2.0, 1.0)}, [(0, 1), (1, 2, 3), (3, 4), (2, 3, 5)])
    levels = {(2, 3, 5): 4.0, (3, 4): 3.0, (1, 2, 3): 2.0, (0, 1): 1.0}
    om = PolyForm(0, K, {T: {((0,) * (len(T) - 1), ()): v} for T, v in levels.items()})
    want = {(0,): 1.0, (1,): 1.0, (2,): 2.0, (3,): 2.0, (4,): 3.0, (5,): 4.0}
    for weighted in (False, True):
        assert derham_map(om, K, 0, weighted).values == want
        assert reference_derham_map(om, K, 0, weighted).values == want


def test_a_piece_off_a_maximal_simplex_carries_no_face():
    # the edge (0, 1) is a face of the triangle (0, 1, 2), so its piece is
    # never a carrier: its vertices and itself take the triangle's values,
    # and the dangling edge (2, 3), which agrees with the triangle at vertex
    # 2, gives vertex 3 its value, so the form is conforming
    K = build_complex(*TRIANGLE_EDGE_VERTEX)
    om = PolyForm(0, K, {(0, 1): {((0,), ()): 7.0},
                         (0, 1, 2): {((0, 0), ()): 1.0, ((1, 0), ()): 2.0},
                         (2, 3): {((0,), ()): 1.0, ((1,), ()): 2.5}})
    want = {(0,): 1.0, (1,): 3.0, (2,): 1.0, (3,): 3.5}
    for weighted in (False, True):
        assert derham_map(om, K, 0, weighted).values == want
        assert reference_derham_map(om, K, 0, weighted).values == want
    assert verify_stokes(om, K).max_stokes_error == reference_stokes_error(om, K) == 0.0


@pytest.mark.parametrize("case", ["strip_4", "strip_48", "tetrahedron", "mixed"])
def test_verify_stokes_matches_the_composition_of_the_references(case):
    # I(d omega) - coboundary(I omega) from omega.d() and the dict maps; the
    # d coefficients are summed in another order, so rounding may differ.
    # Random pieces on every top break the traces, so the residual is O(1)
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(64)
    broken = 0.0
    for k in range(K.dim):
        forms = _whitney_forms(K, k, rng)
        forms.append(PolyForm(k, K, _random_pieces(
            rng, [T for T in K.maximal_simplices() if len(T) > k + 1], k)))
        for om in forms:
            got, want = verify_stokes(om, K).max_stokes_error, reference_stokes_error(om, K)
            assert abs(got - want) <= 1e-14 * (1.0 + want), (k, got, want)
        broken = max(broken, want)
    assert broken > 1e-3  # the broken traces show


def test_stokes_left_side_skips_a_first_carrier_whose_d_is_zero():
    # omega is constant on (0, 1, 2), so d omega has no piece there, and
    # I(d omega) on the shared edge (1, 2) comes from (1, 2, 3): omega there
    # is 4.5 + t_1 + 0.25 t_2, 1 at vertex 2 above its value 4.5 at vertex 1.
    # The vertices 0, 1, 2 take the value 5 from (0, 1, 2), so the residual
    # on (1, 2) is 1, and 0.5 on (1, 3) and (2, 3)
    K = build_complex({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 1.0)},
                      [(0, 1, 2), (1, 2, 3)])
    om = PolyForm(0, K, {(0, 1, 2): {((0, 0), ()): 5.0},
                         (1, 2, 3): {((0, 0), ()): 4.5, ((1, 0), ()): 1.0, ((0, 1), ()): 0.25}})
    assert verify_stokes(om, K).max_stokes_error == reference_stokes_error(om, K) == 1.0


def test_stokes_left_side_skips_a_first_carrier_closed_by_cancellation():
    # on (0, 1, 2, 3), t_1 dt_2 + t_2 dt_1 = d(t_1 t_2) has two terms whose d
    # cancel exactly, so omega.d() has no piece there, and it integrates to 0
    # over every edge.  On (1, 2, 3, 4), t_0 dt_1 + t_1 dt_2 integrates to
    # 1/2 over (1, 2) and (2, 3) and to 0 over (1, 3), so the shared triangle
    # (1, 2, 3) has the residual 1/2 + 1/2 when its I(d omega) comes from
    # (1, 2, 3, 4); the triangles (1, 2, 4) and (2, 3, 4) have 1/2
    K = build_complex({0: (0.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0), 2: (0.0, 1.0, 0.0),
                       3: (0.0, 0.0, 1.0), 4: (1.0, 1.0, 1.0)}, [(0, 1, 2, 3), (1, 2, 3, 4)])
    t0_dt1 = {((0, 0, 0), (1,)): 1.0, ((1, 0, 0), (1,)): -1.0, ((0, 1, 0), (1,)): -1.0,
              ((0, 0, 1), (1,)): -1.0}
    om = PolyForm(1, K, {(0, 1, 2, 3): {((1, 0, 0), (2,)): 1.0, ((0, 1, 0), (1,)): 1.0},
                         (1, 2, 3, 4): {**t0_dt1, ((1, 0, 0), (2,)): 1.0}})
    assert (0, 1, 2, 3) not in om.d().pieces
    got, want = verify_stokes(om, K).max_stokes_error, reference_stokes_error(om, K)
    assert got == pytest.approx(1.0, rel=1e-14) and want == pytest.approx(1.0, rel=1e-14)


def test_stokes_sampler_checks_whitney_forms_and_their_products(monkeypatch):
    # with more than one cell each sample checks W(c) and W(c0) ^ W(c), of
    # degree 1 and 2; at k = 1 the product leaves out the dangling edge and
    # the isolated vertex, where wedge would refuse a 1-form.  A single cell
    # gets one form of arbitrary terms per sample
    seen = []
    exact = derham.verify_stokes
    monkeypatch.setattr(derham, "verify_stokes", lambda om, K: seen.append(om) or exact(om, K))
    assert derham._stokes_error(build_complex(*TRIANGLE_EDGE_VERTEX), 12, seed=3) <= 1e-12
    assert len(seen) == 24 and {om.degree for om in seen} == {0, 1}
    degree = [max(sum(e) for terms in om.pieces.values() for e, _ in terms) for om in seen]
    assert degree == [1, 2] * 12
    seen.clear()
    assert derham._stokes_error(simplex_complex(3), 5, seed=3) <= 1e-12
    assert len(seen) == 5
