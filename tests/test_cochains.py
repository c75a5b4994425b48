import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiforms.cochains import (
    Cochain,
    coboundary,
    indicator,
    lp_norm,
    pi_norm,
    read_cochain,
    write_cochain,
)
from lpiforms.complexes import MetricComplex, PiSequence, barycentric_subdivide, ray_complex
from lpiforms.derham import whitney
from lpiforms.errors import (
    BadCarrier,
    BadDimension,
    BadExponent,
    DuplicateSimplex,
    MissingSimplex,
)

from conftest import (COCHAIN_COMPLEXES, reference_coboundary, simplex_complex,
                      sphere_complex)


def test_cochain_rejects_keys_outside_the_complex():
    K = ray_complex(1, 3)
    # an unsorted key and a foreign key: library errors, not KeyError or {}
    with pytest.raises(MissingSimplex):
        whitney(Cochain(1, {(1, 0): 2.0, (7, 8): 1.0}, K))
    with pytest.raises(MissingSimplex):
        coboundary(Cochain(0, {(9,): 1.0}, K))
    with pytest.raises(BadDimension):
        Cochain(1, {(0,): 1.0}, K)
    with pytest.raises(BadDimension):
        read_cochain("degree 1\n0 1 2 1.0\n", K)
    with pytest.raises(MissingSimplex):
        read_cochain("degree 1\n0 2 1.0\n", K)


def test_coboundary_edge_signs():
    K = simplex_complex(1)
    d0 = coboundary(indicator(K, (0,)))
    d1 = coboundary(indicator(K, (1,)))
    assert d0((0, 1)) == -1.0
    assert d1((0, 1)) == 1.0


def test_coboundary_triangle():
    K = simplex_complex(2)
    c = coboundary(indicator(K, (0, 2)))
    # (0,2) sits at position 1 in (0,1,2): sign (-1)^1
    assert c((0, 1, 2)) == -1.0


def test_sum_rejects_mismatched_operands():
    K = simplex_complex(2)
    with pytest.raises(BadDimension):
        indicator(K, (0,)) + indicator(K, (0, 1))
    with pytest.raises(BadCarrier):
        indicator(K, (0,)) + indicator(sphere_complex(1), (0,))


def test_dd_zero_on_sphere():
    K = sphere_complex(2)
    for v in K.simplices_of_dim(0):
        dd = coboundary(coboundary(indicator(K, v)))
        assert dd.values == {}


def test_indicator_missing_simplex():
    K = simplex_complex(1)
    with pytest.raises(MissingSimplex):
        indicator(K, (0, 5))


def test_lp_norms():
    K = simplex_complex(2)
    c = indicator(K, (0, 1))
    assert lp_norm(c, 2.0) == 1.0
    assert lp_norm(Cochain(1, {}, K), 3.0) == 0.0
    with pytest.raises(BadExponent):
        lp_norm(c, 0.5)
    two = Cochain(1, {(0, 1): 3.0, (0, 2): 4.0}, K)
    assert lp_norm(two, 2.0) == pytest.approx(5.0)


def test_lp_norm_neither_overflows_nor_underflows():
    K = ray_complex(1, 3)
    big = Cochain(1, {(0, 1): 5.0, (1, 2): -7.0}, K)
    want = 7.0 * (1.0 + (5.0 / 7.0) ** 400) ** (1.0 / 400)
    assert lp_norm(big, 400.0) == pytest.approx(want, rel=1e-14)
    tiny = Cochain(1, {(0, 1): 1e-200, (1, 2): -1e-200}, K)
    assert lp_norm(tiny, 4.0) == pytest.approx(2.0 ** 0.25 * 1e-200, rel=1e-14)
    huge = Cochain(1, {(0, 1): 1e200, (1, 2): -1e200}, K)
    assert lp_norm(huge, 3.0) == pytest.approx(2.0 ** (1 / 3) * 1e200, rel=1e-14)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 400.0])
def test_lp_norm_matches_an_exactly_rounded_sum(p):
    # the summed powers may round differently from one exactly rounded sum, by
    # a few ulps; the values stay in dict order
    K = barycentric_subdivide(ray_complex(2, 128))
    n, rng = len(K.simplices_of_dim(1)), np.random.default_rng(21)
    for values in (rng.normal(size=n), 1e-200 * rng.normal(size=n),
                   1e200 * rng.standard_cauchy(size=n)):
        c = Cochain(1, dict(zip(K.simplices_of_dim(1), values.tolist())), K)
        scale = math.ldexp(1.0, math.frexp(max(abs(v) for v in c.values.values()))[1])
        want = math.fsum((abs(v) / scale) ** p for v in c.values.values()) ** (1 / p) * scale
        assert lp_norm(c, p) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("p", [math.inf, math.nan], ids=["inf", "nan"])
def test_lp_norm_rejects_an_exponent_that_is_not_finite(p):
    c = Cochain(1, {(0, 1): 5.0, (0, 2): -7.0}, simplex_complex(2))
    with pytest.raises(BadExponent):
        lp_norm(c, p)


def test_pi_norm_top_degree_has_no_coboundary_term():
    K = simplex_complex(2)
    pi = PiSequence((2.0, 2.0, 2.0), 2)
    top = indicator(K, (0, 1, 2))
    assert pi_norm(top, pi) == 1.0


def test_io_round_trip():
    K = simplex_complex(2)
    c = Cochain(1, {(0, 1): 0.25, (1, 2): -3.5}, K)
    assert read_cochain(write_cochain(c), K).values == c.values
    with pytest.raises(ValueError):
        read_cochain("no header", K)


def test_read_cochain_rejects_duplicate_lines():
    K = ray_complex(1, 3)
    with pytest.raises(DuplicateSimplex):
        read_cochain("degree 1\n0 1 1.0\n0 1 2.0\n", K)
    # the same value twice is still a malformed file
    with pytest.raises(DuplicateSimplex):
        read_cochain("degree 1\n0 1 1.0\n1 2 3.0\n0 1 1.0\n", K)


@st.composite
def random_cochain(draw):
    K = barycentric_subdivide(simplex_complex(2))
    k = draw(st.integers(min_value=0, max_value=1))
    sigmas = K.simplices_of_dim(k)
    vals = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(sigmas) - 1),
                st.floats(-10, 10, allow_nan=False),
            ),
            max_size=6,
        )
    )
    return Cochain(k, {sigmas[i]: v for i, v in vals}, K)


@settings(max_examples=40, deadline=None)
@given(random_cochain())
def test_dd_zero_property(c):
    dd = coboundary(coboundary(c))
    assert all(abs(v) <= 1e-9 for v in dd.values.values())


@settings(max_examples=40, deadline=None)
@given(random_cochain(), random_cochain(), st.floats(-5, 5, allow_nan=False))
def test_norm_homogeneity_and_triangle(a, b, s):
    if a.degree != b.degree:
        return
    assert lp_norm(a.scale(s), 2.0) == pytest.approx(abs(s) * lp_norm(a, 2.0))
    assert lp_norm(a + b, 2.0) <= lp_norm(a, 2.0) + lp_norm(b, 2.0) + 1e-9


def _key_ordered(K, k, rng):
    """A random k-cochain in key order, with about a third of the values 0."""
    return Cochain(k, {s: float(rng.normal()) * (rng.random() > 1 / 3)
                       for s in K.simplices_of_dim(k)}, K)


@pytest.mark.parametrize("case", COCHAIN_COMPLEXES)
def test_coboundary_equals_the_coface_loop_on_key_ordered_cochains(case):
    # the gathers sum in descending i, the order the loop meets the faces
    # of a key-ordered cochain, so the values are bit for bit the same
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(61)
    for k in range(K.dim + 2):
        c = _key_ordered(K, k, rng) if k <= K.dim else Cochain(k, {}, K)
        got, want = coboundary(c), reference_coboundary(c)
        assert got.degree == want.degree == k + 1
        assert got.values == want.values, k


@pytest.mark.parametrize("case", ["strip_48", "tetrahedron", "mixed"])
def test_coboundary_of_a_shuffled_cochain_is_within_rounding(case):
    # in another insertion order the loop sums each tau in another order
    K = COCHAIN_COMPLEXES[case]()
    rng = np.random.default_rng(62)
    for k in range(K.dim):
        items = list(_key_ordered(K, k, rng).values.items())
        shuffled = Cochain(k, dict(items[i] for i in rng.permutation(len(items))), K)
        got, want = coboundary(shuffled), reference_coboundary(shuffled)
        scale = max(abs(v) for _, v in items)
        assert max(abs(got(s) - want(s)) for s in K.simplices_of_dim(k + 1)) <= 1e-15 * scale


def test_coboundary_reads_the_value_vector(monkeypatch):
    # the keys of a cochain built from a dict are hashed into rows once; a
    # coboundary hands its value vector to its result, so dd hashes no more
    K = COCHAIN_COMPLEXES["tetrahedron"]()
    c = _key_ordered(K, 0, np.random.default_rng(65))
    calls = []
    rows = MetricComplex._rows
    monkeypatch.setattr(MetricComplex, "_rows", lambda L, m, keys: calls.append(m) or rows(L, m, keys))
    d = coboundary(c)
    dd = coboundary(d)
    assert calls == [0]
    assert d.values == reference_coboundary(c).values
    assert dd.values == reference_coboundary(d).values


def _reference_sum(a, b):
    """The dict sum that `+` replaced, zeros dropped."""
    vals = dict(a.values)
    for key, v in b.values.items():
        vals[key] = vals.get(key, 0.0) + v
    return {key: v for key, v in vals.items() if v != 0.0}


def _reference_scale(c, f):
    return {key: f * v for key, v in c.values.items() if f * v != 0.0}


def _assert_values(got, want):
    assert got.keys() == want.keys()
    assert np.array_equal([got[key] for key in want], list(want.values()), equal_nan=True)


def test_cochain_arithmetic_matches_the_dict_reference():
    # +, - and scale act on the value vectors; a sum that cancels drops its
    # key, inf + -inf is NaN, and scale never forms f * 0, so a NaN or inf
    # factor leaves an absent key absent and 0 drops every key
    K = COCHAIN_COMPLEXES["strip_4"]()
    rng = np.random.default_rng(70)
    inf = math.inf
    for k in range(K.dim + 1):
        sig = K.simplices_of_dim(k)
        a = Cochain(k, {s: float(rng.normal()) for s in sig if rng.random() < 0.5}, K)
        b = Cochain(k, {s: float(rng.normal()) for s in sig if rng.random() < 0.5}, K)
        first, last = sig[0], sig[-1]
        c = Cochain(k, {**b.values, first: -a(first) or 1.0, last: inf}, K)
        d = Cochain(k, {**a.values, last: -inf}, K)
        for x, y in ((a, b), (b, a), (a, c), (c, d)):
            _assert_values((x + y).values, _reference_sum(x, y))
            _assert_values((x - y).values, _reference_sum(x, Cochain(k, _reference_scale(y, -1.0), K)))
        for f in (2.5, -1.0, 1e308, 0.0, -0.0, math.nan, inf, -inf):  # 1e308 overflows
            _assert_values(c.scale(f).values, _reference_scale(c, f))
            _assert_values((f * a).values, _reference_scale(a, f))
