import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiforms.cochains import Cochain
from lpiforms.complexes import (
    PiSequence,
    build_complex,
    cube_boundary_complex,
    is_subcomplex,
    ray_complex,
)
from lpiforms.derham import whitney
from lpiforms.errors import BadCarrier, BadDimension, BadExponent, BadSubcomplex
from lpiforms.polyform import (
    PolyForm,
    monomial_integral,
    prism_extend,
    simplex_rule,
    t_add,
    t_d,
    t_wedge,
)

from conftest import regular_simplex, simplex_complex


def test_monomial_integral_values():
    # relative to unit total mass: int_0^1 t^a dt / 1 = 1/(a+1)
    assert monomial_integral((2,), 1) == pytest.approx(1.0 / 3.0)
    assert monomial_integral((1, 1), 2) == pytest.approx(
        2.0 * 1.0 / math.factorial(4)
    )
    assert monomial_integral((), 0) == 1.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quadrature_matches_monomials(m):
    pts, wts = simplex_rule(m, 6)
    rng = np.random.default_rng(1)
    for _ in range(10):
        exps = tuple(int(rng.integers(0, 3)) for _ in range(m))
        approx = sum(w * np.prod(x**np.array(exps)) for x, w in zip(pts, wts))
        assert approx == pytest.approx(monomial_integral(exps, m), abs=1e-13)


def test_exterior_derivative_known():
    # d(t1) = dt1 on a triangle
    terms = {((1, 0), ()): 1.0}
    assert t_d(terms, 2) == {((0, 0), (1,)): 1.0}
    # d(t1 dt2) = dt1 ^ dt2
    assert t_d({((1, 0), (2,)): 1.0}, 2) == {((0, 0), (1, 2)): 1.0}
    # d(t2 dt1) = -dt1 ^ dt2
    assert t_d({((0, 1), (1,)): 1.0}, 2) == {((0, 0), (1, 2)): -1.0}


def _random_terms(rng, m, k, nterms=3):
    terms = {}
    for _ in range(nterms):
        exps = tuple(int(rng.integers(0, 3)) for _ in range(m))
        idx = tuple(sorted(rng.choice(m, size=k, replace=False) + 1))
        terms[(exps, idx)] = float(rng.normal())
    return terms


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 10_000))
def test_dd_zero_symbolic(k, seed):
    # integer coefficients keep every product and sum exact, so `== {}`
    # tests the identity itself and not the rounding order of float sums
    rng = np.random.default_rng(seed)
    m = 3
    terms = {key: float(rng.integers(-9, 10)) for key in _random_terms(rng, m, k)}
    assert t_d(t_d(terms, m), m) == {}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1), st.integers(1, 2), st.integers(0, 10_000))
def test_leibniz_rule(k, l, seed):
    rng = np.random.default_rng(seed)
    m = 3
    a = _random_terms(rng, m, k)
    b = _random_terms(rng, m, l)
    lhs = t_d(t_wedge(a, b), m)
    rhs = t_add(t_wedge(t_d(a, m), b), t_wedge(a, t_d(b, m)), (-1.0) ** k)
    diff = t_add(lhs, rhs, -1.0)
    assert all(abs(v) < 1e-10 for v in diff.values())


def test_wedge_anticommutes():
    rng = np.random.default_rng(3)
    a = _random_terms(rng, 3, 1)
    b = _random_terms(rng, 3, 1)
    diff = t_add(t_wedge(a, b), t_wedge(b, a))
    assert all(abs(v) < 1e-12 for v in diff.values())


def test_wedge_degree_overflow():
    K = simplex_complex(1)
    one = PolyForm(1, K, {(0, 1): {((0,), (1,)): 1.0}})
    with pytest.raises(BadDimension):
        one.wedge(one)


def test_integrate_weighted_vs_plain():
    # dt1 over a unit edge: plain integral 1, weighted = length = 1
    K = simplex_complex(1)
    om = PolyForm(1, K, {(0, 1): {((0,), (1,)): 1.0}})
    assert om.integrate((0, 1), weighted=False) == pytest.approx(1.0)
    assert om.integrate((0, 1), weighted=True) == pytest.approx(1.0)
    # orientation flip
    assert om.integrate((1, 0), weighted=False) == pytest.approx(-1.0)
    # on a regular triangle dt1^dt2: plain 1/2, weighted vol
    T = regular_simplex(2)
    om2 = PolyForm(2, T, {(0, 1, 2): {((0, 0), (1, 2)): 1.0}})
    assert om2.integrate((0, 1, 2), weighted=False) == pytest.approx(0.5)
    assert om2.integrate((0, 1, 2), weighted=True) == pytest.approx(
        math.sqrt(3) / 4
    )


def test_trace_and_restrict(triangle):
    om = PolyForm(0, triangle, {(0, 1, 2): {((1, 0), ()): 1.0}})  # t_1
    tr = om.trace_on((0, 1))
    # on edge (0,1), t_1 restricts to the edge coordinate
    assert tr == {((1,), ()): 1.0}
    assert om.trace_on((0, 2)) == {}  # t_1 = 0 there
    from lpiforms.complexes import skeleton

    rest = om.restrict(skeleton(triangle, 1))
    assert rest.trace_on((0, 1)) == {((1,), ()): 1.0}


def test_restrict_rejects_moved_geometry():
    K = ray_complex(1, 2)
    om = PolyForm.constant(K, 1.0)
    same = build_complex({0: K.vertices[0], 1: K.vertices[1]}, [(0, 1)])
    assert is_subcomplex(same, K)
    assert om.restrict(same).lp_norm(2.0) == pytest.approx(1.0)
    # the same keys on other coordinates are not a subcomplex
    moved = build_complex({0: (0.0,), 1: (5.0,)}, [(0, 1)])
    assert not is_subcomplex(moved, K)
    with pytest.raises(BadSubcomplex):
        om.restrict(moved)


def test_lp_norm_constant():
    K = simplex_complex(1)  # one unit edge
    one = PolyForm.constant(K, 1.0)
    assert one.lp_norm(2.0) == pytest.approx(1.0)
    assert one.lp_norm(3.0) == pytest.approx(1.0)
    with pytest.raises(BadExponent):
        one.lp_norm(0.5)


def test_norm_at_one_form():
    # f dt1 on an edge of length 2: |omega| = |f| / 2
    from lpiforms.complexes import build_complex

    K = build_complex({0: (0.0,), 1: (2.0,)}, [(0, 1)])
    om = PolyForm(1, K, {(0, 1): {((0,), (1,)): 3.0}})
    assert om.norm_at((0, 1), np.array([0.5])) == pytest.approx(1.5)


def test_sup_and_sl_pi_norms():
    K = simplex_complex(1)
    om = PolyForm(0, K, {(0, 1): {((1,), ()): 1.0}})  # t_1 on the edge
    assert om.sup_norm((0, 1)) == pytest.approx(1.0)
    pi = PiSequence((2.0, 2.0), 1)
    # sup|t_1| = 1 and sup|dt_1| = 1
    assert om.sl_pi_norm(pi) == pytest.approx(2.0)
    assert om.omega_pi_norm(pi) == pytest.approx(1.0 / math.sqrt(3) + 1.0)


def test_continuity_defect_whitney(subdivided_triangle):
    rng = np.random.default_rng(5)
    sig = subdivided_triangle.simplices_of_dim(1)
    c = Cochain(1, {s: float(rng.normal()) for s in sig}, subdivided_triangle)
    assert whitney(c).continuity_defect() <= 1e-12


def test_prism_extend_base_and_top():
    K = cube_boundary_complex(1)
    om = PolyForm(0, K, {(0,): {((), ()): 2.0}, (1,): {((), ()): -1.0}})
    ext = prism_extend(om, 1)
    # base vertex of the prism edge over point 0 carries value 2, top carries 0
    found = {v: xy for v, xy in ext.complex.vertices.items()}
    for T in ext.complex.maximal_simplices():
        base = [v for v in T if found[v][-1] == 0.0][0]
        top = [v for v in T if found[v][-1] == 1.0][0]
        vals = {}
        for v, t in ((base, None), (top, None)):
            tr = ext.trace_on((v,))
            vals[v] = tr.get(((), ()), 0.0)
        assert vals[top] == pytest.approx(0.0)
        assert abs(vals[base]) in (pytest.approx(2.0), pytest.approx(1.0))


def test_prism_extend_rejects_bad_carrier(triangle):
    om = PolyForm.constant(triangle, 1.0)
    with pytest.raises(BadCarrier):
        prism_extend(om, 2)


def test_holder_embedding_on_triangle(subdivided_triangle):
    S = subdivided_triangle
    mes = sum(S.volume(T) for T in S.maximal_simplices())
    rng = np.random.default_rng(11)
    for _ in range(10):
        pieces = {T: _random_terms(rng, 2, 0) for T in S.maximal_simplices()}
        g = PolyForm(0, S, pieces)
        assert g.lp_norm(2.0) <= mes ** (1 / 2 - 1 / 4) * g.lp_norm(4.0) + 1e-8


def test_form_sum_rejects_other_carrier(triangle):
    a = PolyForm.constant(triangle, 1.0)
    with pytest.raises(BadCarrier):
        a + PolyForm.constant(simplex_complex(2), 1.0)


# --- sympy oracles -----------------------------------------------------------

def _sympy_simplex_integral(expr, xs):
    """Exact integral over the reference simplex {x >= 0, sum x <= 1}."""
    for j in reversed(range(len(xs))):
        expr = sp.integrate(expr, (xs[j], 0, 1 - sum(xs[:j])))
    return expr


@pytest.mark.parametrize("m", [1, 2, 3])
def test_monomial_integrals_against_sympy(m):
    # on simplex_complex(m) the reduced coordinates are the Cartesian ones
    rng = np.random.default_rng(40 + m)
    xs = sp.symbols(f"x1:{m + 1}")
    T = tuple(range(m + 1))
    K = simplex_complex(m)
    full = tuple(range(1, m + 1))
    for _ in range(4):
        terms = {}
        for _ in range(3):
            exps = tuple(int(rng.integers(0, 4)) for _ in range(m))
            terms[(exps, full)] = float(rng.integers(-5, 6))
        exact = {e: _sympy_simplex_integral(sp.prod([x**a for x, a in zip(xs, e)]), xs)
                 for e, _ in terms}
        for e, val in exact.items():
            assert monomial_integral(e, m) == pytest.approx(
                float(val * math.factorial(m)), rel=1e-14)
        total = sum(int(c) * exact[e] for (e, _), c in terms.items())
        got = PolyForm(m, K, {T: terms}).integrate(T, weighted=False)
        assert got == pytest.approx(float(total), rel=1e-13, abs=1e-15)


def _sympy_poly(terms, vs):
    """Scalar terms as a sympy polynomial in the variables vs."""
    return sum(sp.Rational(c) * sp.prod([v**a for v, a in zip(vs, e)])
               for (e, _), c in terms.items())


def test_trace_commutes_with_d_and_matches_sympy():
    tet = simplex_complex(3)
    T = (0, 1, 2, 3)
    faces = [s for k in range(4) for s in tet.simplices_of_dim(k)]
    rng = np.random.default_rng(17)
    for _ in range(40):
        k = int(rng.integers(0, 3))
        terms = {key: float(rng.integers(-4, 5)) for key in _random_terms(rng, 3, k, 4)}
        om = PolyForm(k, tet, {T: terms})
        sigma = faces[int(rng.integers(len(faces)))]
        l = len(sigma) - 1
        assert om.d().trace_on(sigma) == t_d(om.trace_on(sigma), l)
        if k:
            continue
        # scalar trace by substitution: T's barycentric of vertex v is
        # 1 - sum s on sigma[0], s_j on sigma[j], and 0 off sigma
        ss = sp.symbols(f"s1:{l + 1}")
        lam = {v: (1 - sum(ss) if j == 0 else ss[j - 1]) for j, v in enumerate(sigma)}
        want = _sympy_poly(om.pieces[T], [lam.get(v, 0) for v in T[1:]])
        assert sp.expand(want - _sympy_poly(om.trace_on(sigma), ss)) == 0


def test_from_barycentric_hand_expansion(triangle):
    # l0 l1 dl2 + 2 l2 dl0 with l0 = 1 - t1 - t2, dl0 = -dt1 - dt2
    full = {((1, 1, 0), (2,)): 1.0, ((0, 0, 1), (0,)): 2.0}
    want = {
        ((1, 0), (2,)): 1.0,
        ((2, 0), (2,)): -1.0,
        ((1, 1), (2,)): -1.0,
        ((0, 1), (1,)): -2.0,
        ((0, 1), (2,)): -2.0,
    }
    om = PolyForm.from_barycentric(triangle, 1, {(0, 1, 2): full})
    assert om.piece((0, 1, 2)) == want
    # l0^2 = 1 - 2 t1 - 2 t2 + t1^2 + 2 t1 t2 + t2^2
    sq = PolyForm.from_barycentric(triangle, 0, {(0, 1, 2): {((2, 0, 0), ()): 1.0}})
    assert sq.piece((0, 1, 2)) == {
        ((0, 0), ()): 1.0, ((1, 0), ()): -2.0, ((0, 1), ()): -2.0,
        ((2, 0), ()): 1.0, ((1, 1), ()): 2.0, ((0, 2), ()): 1.0,
    }
