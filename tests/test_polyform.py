import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiforms import polyform
from lpiforms.cochains import Cochain
from lpiforms.complexes import (
    PiSequence,
    build_complex,
    cube_boundary_complex,
    ray_complex,
)
from lpiforms import derham
from lpiforms.derham import derham_map, whitney
from lpiforms.errors import (
    BadCarrier,
    BadDimension,
    BadExponent,
    DegenerateSimplex,
    MissingSimplex,
)
from lpiforms.polyform import (
    _ADAPTIVE_DEGREES,
    PolyForm,
    _gauss_jacobi,
    monomial_integral,
    prism_extend,
    pullback,
    selection,
    simplex_rule,
    t_add,
    t_d,
    t_wedge,
)

from conftest import assert_same_complex, regular_simplex, simplex_complex


def test_monomial_integral_values():
    # relative to unit total mass: int_0^1 t^a dt / 1 = 1/(a+1)
    assert monomial_integral((2,), 1) == pytest.approx(1.0 / 3.0)
    assert monomial_integral((1, 1), 2) == pytest.approx(
        2.0 * 1.0 / math.factorial(4)
    )
    assert monomial_integral((), 0) == 1.0


def _jacobi_moment(j: int, a: int) -> Fraction:
    """int_{-1}^{1} x^j (1 - x)^a dx, exactly."""
    return sum(Fraction(2 * math.comb(a, i) * (-1) ** i, j + i + 1)
               for i in range(a + 1) if (j + i) % 2 == 0)


@pytest.mark.parametrize("a", [0, 1, 2, 3])
def test_gauss_jacobi_is_exact(a):
    # a q-point Gauss rule integrates every x^j, j <= 2q - 1, exactly
    for q in range(1, 21):
        x, w = _gauss_jacobi(q, a)
        for j in range(2 * q):
            exact = float(_jacobi_moment(j, a))
            assert float(w @ x**j) == pytest.approx(exact, rel=1e-12, abs=1e-14), (q, j)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quadrature_matches_monomials(m):
    # every monomial of total degree <= degree, at each degree lp_norm asks for
    for degree in (6, *_ADAPTIVE_DEGREES):
        pts, wts = simplex_rule(m, degree)
        powers = pts.T[:, None, :] ** np.arange(degree + 1)[:, None]  # (m, degree + 1, npts)
        for exps in itertools.product(range(degree + 1), repeat=m):
            if sum(exps) <= degree:
                approx = wts @ np.prod(powers[np.arange(m), exps], axis=0)
                assert approx == pytest.approx(monomial_integral(exps, m), abs=1e-14), exps


def test_cached_rule_is_read_only():
    pts, wts = simplex_rule(1, 4)
    with pytest.raises(ValueError):
        pts[:] = 0.0
    with pytest.raises(ValueError):
        wts[:] = 0.0
    assert simplex_rule(1, 4)[0] is pts
    # the L2 norm of t_1 on a unit edge is sqrt(1/3), through the same rule
    K = build_complex({0: (0.0,), 1: (1.0,)}, [(0, 1)])
    t1 = PolyForm(0, K, {(0, 1): {((1,), ()): 1.0}})
    assert t1.lp_norm(2.0) == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("p, degree", [(2.0, 2), (4.0, 4)])
def test_even_p_rule_has_degree_p_times_d(monkeypatch, p, degree):
    # |omega|^p = (V G V^T)^(p/2) has degree p * d for components of degree
    # d, and a Whitney 1-form on a triangle has d = 1
    K = build_complex({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.3, 0.8)}, [(0, 1, 2)])
    om = whitney(Cochain(1, {(0, 1): 1.0, (0, 2): 0.25, (1, 2): -0.5}, K))
    asked, real = [], polyform.simplex_rule

    def recording(m, deg):
        asked.append(deg)
        return real(m, deg)

    monkeypatch.setattr(polyform, "simplex_rule", recording)
    value = om.lp_norm(p)
    assert asked == [degree]
    # a rule of higher degree gives the same norm: the lower one is exact
    monkeypatch.setattr(polyform, "simplex_rule", lambda m, deg: real(m, deg + 6))
    assert om.lp_norm(p) == pytest.approx(value, rel=1e-14)


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


def test_lp_norm_constant():
    K = simplex_complex(1)  # one unit edge
    one = PolyForm.constant(K, 1.0)
    assert one.lp_norm(2.0) == pytest.approx(1.0)
    assert one.lp_norm(3.0) == pytest.approx(1.0)
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(BadExponent):
            one.lp_norm(p)


def test_lp_norm_neither_overflows_nor_underflows():
    edge = build_complex({0: (0.0,), 1: (1.0,)}, [(0, 1)])
    assert PolyForm.constant(edge, 7.0).lp_norm(400.0) == pytest.approx(7.0, rel=1e-13)
    for p in (4.0, 2.5):
        tiny = PolyForm.constant(edge, 1e-200).lp_norm(p)
        assert tiny == pytest.approx(1e-200, rel=1e-12)
    assert PolyForm.constant(edge, 1e200).lp_norm(3.0) == pytest.approx(1e200, rel=1e-12)
    # |dt_1| = 100 on an edge of length 0.01: the metric alone would overflow
    short = build_complex({0: (0.0,), 1: (0.01,)}, [(0, 1)])
    dt = PolyForm(1, short, {(0, 1): {((0,), (1,)): 1.0}})
    assert dt.lp_norm(400.0) == pytest.approx(100.0 * 0.01 ** (1 / 400), rel=1e-13)


def _per_piece_lp_norm(om, p):
    """lp_norm by a plain loop: per piece and rule point, the components from
    the terms and |omega|^2 from the Gram-inverse minors; a p that is not an
    even integer raises each piece's rule until two in a row agree.  Returns
    the norm and the rule degree each piece stopped at."""
    K, k = om.complex, om.degree
    top = max(sum(e) for terms in om.pieces.values() for e, _ in terms)
    even = float(p).is_integer() and int(p) % 2 == 0
    degrees = (int(p) * (top + 1),) if even else _ADAPTIVE_DEGREES
    total, stops = 0.0, {}
    for T, terms in om.pieces.items():
        edges = K.coords(T)[1:] - K.coords(T)[0]
        ginv = np.linalg.inv(edges @ edges.T)
        prev = None
        for deg in degrees:
            pts, wts = simplex_rule(len(T) - 1, deg)
            acc = 0.0
            for x, w in zip(pts, wts):
                comp = {}
                for (e, I), c in terms.items():
                    comp[I] = comp.get(I, 0.0) + c * float(np.prod(x ** np.array(e)))
                sq = sum(comp[I] * comp[J] * np.linalg.det(ginv[np.ix_([i - 1 for i in I],
                                                                       [j - 1 for j in J])])
                         for I in comp for J in comp)
                acc += w * max(sq, 0.0) ** (p / 2.0)
            stops[T] = deg
            if prev is not None and abs(acc - prev) <= 1e-10 * (1.0 + abs(acc)):
                break
            prev = acc
        total += K.volume(T) * acc
    return total ** (1.0 / p), stops


@pytest.mark.parametrize("p", [2.0, 3.0, 2.5, 4.0])
def test_batched_lp_norm_matches_a_per_piece_loop(p):
    # maximal simplices of two dimensions (triangles and dangling edges),
    # and a triangle without a piece
    K = build_complex({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.2, 0.9), 3: (2.0, 0.5),
                       4: (1.1, 1.3), 5: (-0.8, 0.6), 6: (2.5, 1.5)},
                      [(0, 1, 2), (1, 2, 4), (0, 2, 5), (1, 3), (3, 6)])
    # per dimension, one piece vanishes nowhere and one changes sign, so
    # that |omega|^p is smooth on one and not on the other
    forms = [
        PolyForm(0, K, {(0, 1, 2): {((0, 0), ()): 1.0, ((1, 0), ()): 0.1},
                        (1, 2, 4): {((1, 0), ()): 1.0, ((0, 1), ()): 0.5, ((0, 0), ()): -0.3},
                        (1, 3): {((1,), ()): 1.0, ((0,), ()): -0.3},
                        (3, 6): {((0,), ()): 2.0, ((1,), ()): 0.5}}),
        PolyForm(1, K, {(0, 1, 2): {((0, 0), (1,)): 1.5, ((0, 1), (2,)): -0.7},
                        (1, 2, 4): {((1, 0), (1,)): 1.0, ((0, 0), (1,)): -0.4,
                                    ((0, 0), (2,)): 0.3},
                        (1, 3): {((1,), (1,)): 2.0, ((0,), (1,)): -0.5},
                        (3, 6): {((0,), (1,)): -1.0}}),
    ]
    for om in forms:
        want, stops = _per_piece_lp_norm(om, p)
        assert om.lp_norm(p) == pytest.approx(want, rel=1e-12)
        if p == 2.5:
            # pieces of one dimension stop at different rules
            for pair in ([(0, 1, 2), (1, 2, 4)], [(1, 3), (3, 6)]):
                assert stops[pair[0]] != stops[pair[1]], stops


def test_geometry_is_built_once_per_dimension(monkeypatch):
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape) or inv(a))
    K = ray_complex(2, 4)
    edges, tris = K.simplices_of_dim(1), K.simplices_of_dim(2)
    om = whitney(Cochain(1, {e: float(i) for i, e in enumerate(edges)}, K))
    first = om.lp_norm(2.0)
    for _ in range(3):
        assert om.lp_norm(2.0) == first
        om.lp_norm(3.0)
        for T in tris:
            K.volume(T)
            for k in (0, 1, 2):
                K.covector_gram(T, k)
    assert calls == [(len(tris), 2, 2)]
    K.volume(edges[0])
    K.covector_gram(edges[-1], 1)
    assert calls == [(len(tris), 2, 2), (len(edges), 1, 1)]


def test_lp_norm_on_a_zero_volume_simplex():
    K = build_complex({0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0)}, [(0, 1, 2)])
    with pytest.raises(DegenerateSimplex):
        PolyForm(1, K, {(0, 1, 2): {((0, 0), (1,)): 1.0}}).lp_norm(2.0)
    assert PolyForm.constant(K, 1.0).lp_norm(2.0) == 0.0  # a 0-form needs no metric


def test_one_form_norm_in_the_edge_metric():
    # f dt1 on an edge of length 2: |omega| = |f| / 2
    K = build_complex({0: (0.0,), 1: (2.0,)}, [(0, 1)])
    om = PolyForm(1, K, {(0, 1): {((0,), (1,)): 3.0}})
    assert om.sup_norm((0, 1)) == pytest.approx(1.5)
    assert om.lp_norm(2.0) == pytest.approx(1.5 * math.sqrt(2.0))


def test_sup_and_sl_pi_norms():
    K = simplex_complex(1)
    om = PolyForm(0, K, {(0, 1): {((1,), ()): 1.0}})  # t_1 on the edge
    assert om.sup_norm((0, 1)) == pytest.approx(1.0)
    pi = PiSequence((2.0, 2.0), 1)
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


def test_prism_complex_built_once_per_base(monkeypatch):
    # the extensions of one form_algebra benchmark pass: 20 forms on 2 bases
    real, built = polyform.build_complex, []

    def counting_build(vertices, tops):
        built.append(len(vertices))
        return real(vertices, tops)

    monkeypatch.setattr(polyform, "build_complex", counting_build)
    K1, K2 = cube_boundary_complex(1), cube_boundary_complex(2)
    rng = np.random.default_rng(3)
    forms = [(PolyForm(0, K1, {(v,): {((), ()): float(rng.normal())} for v in range(2)}), 1)
             for _ in range(10)]
    forms += [(whitney(Cochain(0, {(v,): float(rng.normal()) for v in range(4)}, K2)), 2)
              for _ in range(5)]
    forms += [(PolyForm(1, K2, {e: {((0,), (1,)): float(rng.normal())}
                                for e in K2.maximal_simplices()}), 2) for _ in range(5)]
    exts = [prism_extend(om, n) for om, n in forms]
    assert built == [4, 8]
    assert all(e.complex is exts[0].complex for e in exts[:10])
    assert all(e.complex is exts[10].complex for e in exts[10:])
    # a fresh base builds its own prism, with the same pieces
    om = forms[-1][0]
    fresh = prism_extend(PolyForm(1, cube_boundary_complex(2), om.pieces), 2)
    assert len(built) == 3 and fresh.pieces == exts[-1].pieces


def reference_prism(K):
    """The prism over a cube boundary as it was built by hand, one case per
    cell dimension, kept as the reference for the staircase prism."""
    vid, vertices = {}, {}
    for i, v in enumerate(sorted(K.vertices)):
        for level in (0, 1):
            vid[(v, level)] = 2 * i + level
            vertices[2 * i + level] = tuple(K.vertices[v]) + (float(level),)
    tops = []
    for cell in K.maximal_simplices():
        if len(cell) == 1:
            (a,) = cell
            tops.append(tuple(sorted((vid[(a, 0)], vid[(a, 1)]))))
        else:
            a, b = cell
            a0, a1 = vid[(a, 0)], vid[(a, 1)]
            b0, b1 = vid[(b, 0)], vid[(b, 1)]
            tops.append(tuple(sorted((a0, b0, b1))))
            tops.append(tuple(sorted((a0, a1, b1))))
    return build_complex(vertices, tops)


@pytest.mark.parametrize("base", [
    lambda: cube_boundary_complex(1),
    lambda: cube_boundary_complex(2),
    # a path of two sides and an isolated corner, with ids that are not ranks
    lambda: build_complex({5: (0.0, 0.0), 6: (1.0, 0.0), 8: (1.0, 1.0), 9: (0.0, 1.0)},
                          [(5, 6), (6, 8), (9,)]),
], ids=["n1", "n2", "path_and_corner"])
def test_staircase_prism_matches_the_hand_built_prism(base):
    K = base()
    assert_same_complex(polyform._prism_complex(K), reference_prism(K))


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
    T = (0, 1, 2)
    assert pullback(full, selection(T, T)) == want
    # l0^2 = 1 - 2 t1 - 2 t2 + t1^2 + 2 t1 t2 + t2^2
    assert pullback({((2, 0, 0), ()): 1.0}, selection(T, T)) == {
        ((0, 0), ()): 1.0, ((1, 0), ()): -2.0, ((0, 1), ()): -2.0,
        ((2, 0), ()): 1.0, ((1, 1), ()): 2.0, ((0, 2), ()): 1.0,
    }


def test_continuity_defect_measures_a_perturbed_piece(subdivided_triangle):
    S = subdivided_triangle
    rng = np.random.default_rng(8)
    delta = 0.375
    for k, bump in ((0, {((0, 0), ()): delta}), (1, {((0, 0), (1,)): delta})):
        c = Cochain(k, {s: float(rng.normal()) for s in S.simplices_of_dim(k)}, S)
        w = whitney(c)
        # the last small triangle is (vertex, edge midpoint, barycentre): dt_1
        # traces to -ds on its edge (midpoint, barycentre), which it shares
        T = S.maximal_simplices()[-1]
        pieces = dict(w.pieces)
        pieces[T] = t_add(pieces[T], bump)
        bent = PolyForm(k, S, pieces)
        assert bent.continuity_defect() == pytest.approx(delta, abs=1e-12)
    # a maximal simplex without a piece carries the zero trace
    T = S.maximal_simplices()[0]
    lone = PolyForm(0, S, {T: {((0, 0), ()): 2.5}})
    assert lone.continuity_defect() == pytest.approx(2.5, abs=1e-15)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_lp_norm_against_sympy_on_a_non_regular_tetrahedron(k):
    verts = [(0, 0, 0), (2, 0, 0), (sp.Rational(1, 2), sp.Rational(3, 2), 0),
             (sp.Rational(1, 3), sp.Rational(1, 4), sp.Rational(5, 4))]
    K = build_complex({i: tuple(float(x) for x in v) for i, v in enumerate(verts)},
                      [(0, 1, 2, 3)])
    T = (0, 1, 2, 3)
    E = sp.Matrix([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]])
    ginv = (E * E.T).inv()
    ts = sp.symbols("t1:4")
    rng = np.random.default_rng(60 + k)
    terms = {}
    for _ in range(3):
        exps = tuple(int(rng.integers(0, 2)) for _ in range(3))
        idx = tuple(sorted(int(i) + 1 for i in rng.choice(3, size=k, replace=False)))
        terms[(exps, idx)] = float(rng.integers(-4, 5) or 1)
    om = PolyForm(k, K, {T: terms})
    comp: dict = {}
    for (e, I), c in terms.items():
        comp[I] = comp.get(I, 0) + sp.Integer(int(c)) * sp.prod([t**a for t, a in zip(ts, e)])
    norm_sq = sum(comp[I] * comp[J] * ginv.extract([i - 1 for i in I], [j - 1 for j in J]).det()
                  for I in comp for J in comp)
    for p in (2, 4):
        # the reduced coordinates map the reference simplex onto T with
        # Jacobian |det E|
        exact = abs(E.det()) * _sympy_simplex_integral(sp.expand(norm_sq ** (p // 2)), ts)
        want = float(exact) ** (1.0 / p)
        assert om.lp_norm(float(p)) == pytest.approx(want, rel=1e-12)


def _random_source_terms(rng, rows, reduced, k, count=4):
    first = 1 if reduced else 0
    terms = {}
    for _ in range(count):
        exps = tuple(int(rng.integers(0, 3)) for _ in range(rows - first))
        idx = tuple(sorted(int(i) + first for i in rng.choice(rows - first, size=k, replace=False)))
        terms[(exps, idx)] = float(rng.normal())
    return terms


def _sympy_pullback(terms, B):
    """Reference expansion: source variable i is l_i = sum_j B[i][j] lam_j
    with lam_0 = 1 - sum t and lam_j = t_j, and by Cauchy-Binet the dt_J
    component of dl_I is det(D[I, J]) with D[i][j] = B[i][j] - B[i][0]."""
    Bq = sp.Matrix([[sp.Rational(x) for x in row] for row in B])
    m = Bq.cols - 1
    ts = sp.symbols(f"t1:{m + 1}")
    lam = sp.Matrix([1 - sum(ts)] + list(ts))
    ls = Bq * lam
    D = Bq[:, 1:] - Bq[:, 0] * sp.ones(1, m)
    out = {}
    for (exps, idx), c in terms.items():
        first = len(B) - len(exps)
        poly = sp.Rational(c) * sp.prod([ls[i] ** a for i, a in enumerate(exps, start=first)])
        for J in itertools.combinations(range(1, m + 1), len(idx)):
            minor = D.extract(list(idx), [j - 1 for j in J]).det() if idx else 1
            for mono, coeff in sp.Poly(sp.expand(poly * minor), *ts).terms():
                key = (tuple(mono), J)
                out[key] = out.get(key, 0) + coeff
    return {key: float(v) for key, v in out.items() if v != 0}


def test_pullback_matches_uncached_reference_expansion():
    rng = np.random.default_rng(23)
    cases = [
        selection((0, 1), (0, 0, 1)),   # prism_extend: base vertex j -> its prism vertices
        selection((0,), (0, 0, 1)),     # prism_extend: 1 - t as the level-0 sum
        selection((0, 1, 2), (0, 1, 2)),
        rng.normal(size=(3, 4)).tolist(),
        rng.normal(size=(2, 3)).tolist(),
    ]
    for B in cases:
        for reduced in (False, True):
            rows = len(B)
            for k in range(min(rows - reduced, len(B[0]) - 1) + 1):
                terms = _random_source_terms(rng, rows, reduced, k)
                got, want = pullback(terms, B), _sympy_pullback(terms, B)
                scale = max(abs(v) for v in want.values()) if want else 1.0
                assert set(got) <= set(want) | {key for key, v in got.items()
                                                if abs(v) <= 1e-12 * scale}
                for key, v in want.items():
                    assert got.get(key, 0.0) == pytest.approx(v, abs=1e-12 * scale)


def _symbolic_face_table(key):
    """The face table by pulling the term back onto each face and
    integrating the dt_1 ^ ... ^ dt_k component monomial by monomial."""
    m, k = len(key[0]), len(key[1])
    ref, full = tuple(range(m + 1)), tuple(range(1, k + 1))
    return [sum((v * monomial_integral(e, k) for (e, I), v in
                 pullback({key: 1.0}, selection(ref, f)).items() if I == full), 0.0)
            for f in itertools.combinations(ref, k + 1)]


def _face_keys(m, top):
    """Every term key over m reduced variables with exponents at most top."""
    return [(exps, I) for exps in itertools.product(range(top + 1), repeat=m)
            for k in range(m + 1) for I in itertools.combinations(range(1, m + 1), k)]


def test_face_table_matches_exact_sympy_integrals():
    @functools.cache
    def monomial(e):
        xs = sp.symbols(f"x1:{len(e) + 1}")
        return _sympy_simplex_integral(sp.prod([x**a for x, a in zip(xs, e)]), xs)

    for m in (1, 2, 3):
        ref = tuple(range(m + 1))
        for key in _face_keys(m, 2):
            k = len(key[1])
            faces = itertools.combinations(ref, k + 1)
            for f, got in zip(faces, polyform._face_table(key), strict=True):
                if k == 0:  # a vertex: the value of the term there
                    exact = _sympy_poly({key: 1.0}, [int(j == f[0]) for j in ref[1:]])
                else:
                    exact = math.factorial(k) * sum(
                        sp.Rational(v) * monomial(e) for (e, I), v in
                        _sympy_pullback({key: 1.0}, selection(ref, f)).items() if I == ref[1:k + 1])
                assert abs(got - float(exact)) <= 1e-15 * abs(float(exact)), (key, f)


def test_face_table_matches_the_symbolic_pullback():
    # the symbolic path expands (1 - sum s)^a on a face off vertex 0 and
    # loses digits to cancellation, so the two agree to rounding only
    for m in (1, 2, 3):
        for key in _face_keys(m, 4):
            want = _symbolic_face_table(key)
            scale = max(map(abs, want), default=0.0)
            got = polyform._face_table(key)
            assert max(abs(a - b) for a, b in zip(got, want, strict=True)) <= 1e-12 * scale, key


def test_face_tables_pull_nothing_back():
    # derham_map(whitney(c)) pulls back only the reference Whitney forms:
    # k + 1 unit terms for each face position `_local_whitney` builds (for
    # the kernel's table of each (m, k), built anew once its cache is cleared)
    rng = np.random.default_rng(31)
    K = cube_boundary_complex(2)
    for k in (0, 1):
        polyform._unit_pullback.cache_clear()
        polyform._face_table.cache_clear()
        derham._local_whitney.cache_clear()
        derham._whitney_table.cache_clear()
        c = Cochain(k, {s: float(rng.normal()) for s in K.simplices_of_dim(k)}, K)
        image = derham_map(whitney(c), K, k)
        assert image.values == pytest.approx(c.values, abs=1e-12)
        built = derham._local_whitney.cache_info().misses
        assert built and polyform._unit_pullback.cache_info().misses == (k + 1) * built


def _loop_d(a, m):
    """d of terms by the per-term loop the cached unit derivatives replace."""
    out = {}
    for (exps, idx), c in a.items():
        for j in range(1, m + 1):
            e = exps[j - 1]
            if e == 0 or j in idx:
                continue
            nexps = tuple(x - 1 if q == j - 1 else x for q, x in enumerate(exps))
            below = sum(1 for i in idx if i < j)
            key = (nexps, tuple(sorted(idx + (j,))))
            out[key] = out.get(key, 0.0) + (-1) ** below * c * e
    return {key: v for key, v in out.items() if v != 0.0}


def test_d_is_bit_identical_to_a_per_term_loop():
    rng = np.random.default_rng(37)
    for _ in range(2000):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(0, m + 1))
        terms = {}
        for _ in range(int(rng.integers(1, 7))):
            exps = tuple(int(x) for x in rng.integers(0, 4, size=m))
            idx = tuple(sorted(int(i) + 1 for i in rng.choice(m, size=k, replace=False)))
            terms[(exps, idx)] = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5, 5))
        assert list(t_d(terms, m).items()) == list(_loop_d(terms, m).items())


def test_pullback_results_do_not_share_state():
    B = selection((0, 1, 2), (0, 1, 2, 3))
    for terms in ({((1, 0, 2), (0,)): 1.0}, {((1, 0), (1,)): 2.0, ((0, 2), (2,)): -1.5}):
        first = pullback(terms, B)
        want = dict(first)
        for key in list(first):
            first[key] = 99.0
        first[((9, 9, 9), (1,))] = 1.0
        assert pullback(terms, B) == want
        first.clear()
        assert pullback(terms, [list(row) for row in B]) == want


def test_pointwise_values_match_a_per_term_loop():
    # evaluate and sup_norm against a plain loop over the terms and
    # the Gram-inverse minors of a non-regular tetrahedron
    K = build_complex({0: (0.0, 0.0, 0.0), 1: (2.0, 0.0, 0.0), 2: (0.5, 1.5, 0.0),
                       3: (0.3, 0.2, 1.25)}, [(0, 1, 2, 3)])
    T = (0, 1, 2, 3)
    edges = K.coords(T)[1:] - K.coords(T)[0]
    ginv = np.linalg.inv(edges @ edges.T)
    rng = np.random.default_rng(29)
    lattice = [np.array(x) / 3.0 for x in itertools.product(range(4), repeat=3) if sum(x) <= 3]
    for k in range(4):
        om = PolyForm(k, K, {T: _random_terms(rng, 3, k, 5)})
        squares = []
        for x in lattice + [rng.uniform(0, 1 / 3, 3) for _ in range(5)]:
            comp = {}
            for (e, I), c in om.pieces[T].items():
                comp[I] = comp.get(I, 0.0) + c * float(np.prod(x ** np.array(e)))
            got = om.evaluate(T, x)
            assert set(got) == set(comp)
            for I, v in comp.items():
                assert got[I] == pytest.approx(v, rel=1e-12, abs=1e-14)
            sq = max(0.0, sum(
                comp[I] * comp[J] * np.linalg.det(ginv[np.ix_([i - 1 for i in I], [j - 1 for j in J])])
                for I in comp for J in comp))
            squares.append(sq)
        best = max(squares[: len(lattice)])
        assert om.sup_norm(T, resolution=3) == pytest.approx(math.sqrt(best), rel=1e-12)


def test_a_piece_off_the_complex_is_rejected():
    # (0, 3) is not an edge of the ray 0-1-2-3, so no integral over it exists
    K = ray_complex(1, 3)
    with pytest.raises(MissingSimplex):
        PolyForm(0, K, {(0, 3): {((1,), ()): 1.0}})
    with pytest.raises(MissingSimplex):
        PolyForm(0, K, {(0, 1): {((1,), ()): 1.0}, (3, 2): {((1,), ()): 1.0}})
    om = PolyForm(0, K, {(0, 1): {((1,), ()): 1.0}})
    assert [om.integrate((v,), weighted=False) for v in (0, 1)] == [0.0, 1.0]
