import itertools
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
    pullback,
    selection,
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
    # evaluate, norm_at and sup_norm against a plain loop over the terms and
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
            assert om.norm_at(T, x) == pytest.approx(math.sqrt(sq), rel=1e-12, abs=1e-14)
            squares.append(sq)
        best = max(squares[: len(lattice)])
        assert om.sup_norm(T, resolution=3) == pytest.approx(math.sqrt(best), rel=1e-12)
