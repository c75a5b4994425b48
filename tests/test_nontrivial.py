import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpiforms import nontrivial, polyform
from lpiforms.cochains import Cochain, coboundary
from lpiforms.complexes import PiSequence
from lpiforms.errors import BadEpsilon, BadExponent, NotACounterexample
from lpiforms.mollify import GridForm, cone_S
from lpiforms.nontrivial import (
    SeriesVerdict,
    build_family,
    bump_profile,
    derham_kernel_check,
    family_norm_series,
    integral_test_brackets,
    p_series,
    subdivision_image,
    swapped_series,
    verify_nontriviality,
)

PI = PiSequence((2.0, 4.0), 1)


def test_bump_profile_values():
    assert bump_profile(0.0) == pytest.approx(math.exp(-1.0))
    assert bump_profile(1.0) == 0.0
    assert bump_profile(-2.5) == 0.0
    assert bump_profile(0.37) == pytest.approx(bump_profile(-0.37))


def test_build_family_preconditions():
    with pytest.raises(NotACounterexample):
        build_family(0, PiSequence((4.0, 2.0), 1), 1.0, 10)
    with pytest.raises(BadEpsilon):
        build_family(0, PI, 2.0, 10)  # boundary of (0, 2)
    with pytest.raises(BadEpsilon):
        build_family(0, PI, 0.0, 10)


@pytest.mark.parametrize("ps", [(2.0, math.inf), (math.nan, 4.0), (1.0, 4.0), (2.0, 4.0, 8.0)])
def test_build_family_refuses_an_invalid_sequence_before_its_other_checks(ps):
    # eps = 1 would pass every later check at (2, inf); at (nan, 4) the
    # eps window (0, nan) would be blamed instead of the exponent
    with pytest.raises(BadExponent):
        build_family(0, PiSequence(ps, 1), 1.0, 10)


def test_geometry_cap_follows_the_truncation():
    assert build_family(0, PI, 1.0, 50).geometry_cap == 50
    fam = build_family(0, PI, 1.0, 10**6)
    assert fam.geometry_cap == nontrivial.GEOMETRY_CAP
    assert len(fam.subdivided.simplices_of_dim(1)) == 2 * fam.geometry_cap
    # derived from M, so a copy with another M cannot keep a stale cap
    assert dataclasses.replace(fam, M=20).geometry_cap == 20


def test_build_family_refuses_a_higher_degree_before_reading_its_exponent():
    # PI has no p_2, so k = 1 must be refused before p_{k+1} is read
    with pytest.raises(NotACounterexample, match="k = 0"):
        build_family(1, PI, 1.0, 10)


def test_weights_decreasing_and_values():
    fam = build_family(0, PI, 1.0, 100)
    ws = fam.weight(np.arange(1, 101))
    assert np.all(np.diff(ws) < 0)
    assert fam.weight(1) == pytest.approx(1.0)
    assert fam.weight(8) == pytest.approx(0.5)  # (1/8)^(1/3)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 3.0, allow_nan=False))
def test_series_verdict_sound(a):
    v = p_series(a, [10, 100, 1000])
    assert (v.verdict == "converges") == (a > 1.0)
    for m, s in v.partial_sums:
        lo, hi = integral_test_brackets(a, m)
        assert lo - 1e-9 <= s <= hi + 1e-9


def test_divergent_growth_rate():
    v = p_series(2.0 / 3.0, [10**4, 10**5])
    for m, s in v.partial_sums:
        assert 0.9 <= s / (3.0 * m ** (1.0 / 3.0)) <= 1.1


def test_family_norm_series_exponents():
    fam = build_family(0, PI, 1.0, 1000)
    hi = family_norm_series(fam, 4.0)
    lo = family_norm_series(fam, 2.0)
    assert hi.exponent == pytest.approx(4.0 / 3.0)
    assert hi.verdict == "converges"
    assert lo.exponent == pytest.approx(2.0 / 3.0)
    assert lo.verdict == "diverges"
    # boundary p = p_{k+1} - eps gives the harmonic series
    assert family_norm_series(fam, 3.0).verdict == "diverges"


def test_kernel_check():
    fam = build_family(0, PI, 1.0, 50)
    rep = derham_kernel_check(fam)
    assert rep.max_residual <= 1e-12


def test_subdivision_image_entries():
    fam = build_family(0, PI, 1.0, 50)
    rep = subdivision_image(fam)
    assert rep.max_constant_error <= 1e-12
    assert rep.opposite_signs
    assert rep.lp_high.verdict == "converges"
    assert rep.lp_low.verdict == "diverges"
    # each bump contributes exactly two half-edge entries
    assert len(rep.cochain.values) == 2 * fam.geometry_cap


def _dpsi(u):
    """Psi'(u) = Psi(u) * (-2u / (u^2 - 1)^2), written out here independently."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = u**2 < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 / (ui**2 - 1.0)) * (-2.0 * ui / (ui**2 - 1.0) ** 2)
    return out


@pytest.mark.parametrize("M", [1, 7, 1000])
def test_batched_quadrature_matches_closed_form(M):
    # every bump vanishes at its carrier's vertices, d(omega_i) integrates
    # to 0 over the carrier, and to -+w_i/e over its two halves; the 96-point
    # Gauss rule on d(omega_i) is an oracle independent of the vertex values
    fam = build_family(0, PI, 1.0, M)
    kern = derham_kernel_check(fam)
    assert kern.bumps_checked == M
    assert kern.max_point_value == 0.0
    assert kern.max_edge_integral == 0.0
    Kp, values = fam.subdivided, subdivision_image(fam).cochain.values
    t, wt = polyform.simplex_rule(1, 191)

    def integral(i, a, b):  # of d(omega_i) from x = a to x = b
        x = a + (b - a) * t[:, 0]
        return (b - a) * float(2.0 * fam.weight(i) * _dpsi(2.0 * x - (2.0 * i - 1.0)) @ wt)

    mid = {int(round(x[0] + 0.5)): v for v, x in Kp.vertices.items()
           if abs(x[0] - round(x[0])) > 1e-9}
    for i in range(1, M + 1):
        assert abs(integral(i, i - 1.0, float(i))) <= 1e-12
        w = float(fam.weight(i)) / math.e
        oriented = []
        for v0 in (i - 1, i):
            key = tuple(sorted((v0, mid[i])))
            assert abs(abs(values[key]) - w) <= 1e-12
            assert abs(values[key] - integral(i, *(Kp.vertices[v][0] for v in key))) <= 1e-12
            rising = Kp.vertices[key[1]][0] > Kp.vertices[key[0]][0]
            oriented.append(values[key] if rising else -values[key])
        assert oriented[0] > 0.0 > oriented[1]


def test_gauss_rule_built_once_per_node_count(monkeypatch):
    # the bump family takes its integrals from vertex values and builds no
    # rule; cone_S builds its 24-point rule once, and the arrays are read-only
    calls = []
    real = polyform._gauss_jacobi

    def counting(q, a):
        calls.append((q, a))
        return real(q, a)

    monkeypatch.setattr(polyform, "_gauss_jacobi", counting)
    polyform.simplex_rule.cache_clear()
    for _ in range(2):
        assert verify_nontriviality(PI, 1.0, [1000]).passed
    cone_S(GridForm.from_function(1, 1 / 16, 1, {(0,): lambda x: x}))
    assert sorted(calls) == [(24, 0)]
    for q in (24, 96):
        t, w = polyform.simplex_rule(1, 2 * q - 1)
        assert not t.flags.writeable and not w.flags.writeable
        # the q-point Gauss-Legendre rule, moved from [-1, 1] to [0, 1]
        x, v = np.polynomial.legendre.leggauss(q)
        assert np.abs(t[:, 0] - (x + 1.0) / 2.0).max() <= 1e-15
        assert np.abs(w - v / 2.0).max() <= 1e-14


def test_p_series_runs_once_per_exponent(monkeypatch):
    calls = []
    real = nontrivial.p_series

    def counting(a, checkpoints):
        calls.append(a)
        return real(a, checkpoints)

    monkeypatch.setattr(nontrivial, "p_series", counting)
    rep = verify_nontriviality(PI, 1.0, [10**4])
    assert rep.passed
    assert sorted(calls) == sorted({rep.domega_low.exponent, rep.domega_high.exponent})
    # a second call recomputes: there is no cache across calls
    verify_nontriviality(PI, 1.0, [10**4])
    assert len(calls) == 4


def test_bump_profile_is_elementwise_for_n1():
    x = np.array([[0.0], [0.5], [1.5]])
    out = bump_profile(x)
    assert isinstance(out, np.ndarray) and out.shape == (3, 1)
    assert out[:, 0].tolist() == [bump_profile(v) for v in (0.0, 0.5, 1.5)]
    one = bump_profile(np.zeros(1))
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert one[0] == math.exp(-1.0)
    pairs = np.array([[0.0, 0.5], [1.5, -0.25]])
    assert bump_profile(pairs).shape == (2, 2)
    assert bump_profile(pairs)[1, 1] == bump_profile(-0.25)
    s = bump_profile(0.5)
    assert isinstance(s, float) and s == math.exp(1.0 / (0.25 - 1.0))


@pytest.mark.parametrize("a", [2.0 / 3.0, 4.0 / 3.0])
def test_p_series_in_place_matches_cumsum(a):
    # a second reference: the float64 cumsum of every term is itself up to
    # 2.6e-13 off at M = 10^6 (the mpmath oracle below pins the sums tighter)
    M = 10**6
    ref = np.cumsum(np.arange(1, M + 1, dtype=float) ** (-a))
    checkpoints = [1, 5, 64, 65, *(10**j for j in range(1, 7))]
    got = p_series(a, checkpoints).partial_sums
    assert [m for m, _ in got] == sorted(checkpoints)
    for m, s in got:
        assert abs(s - ref[m - 1]) <= 1e-12 * ref[m - 1]


def _exact_partial_sum(a: float, m: int):
    """sum_{i <= m} i^(-a) at 40 digits: the harmonic number at a = 1, else
    zeta(a) - zeta(a, m + 1) (Hurwitz), both in closed form in mpmath."""
    if a == 1.0:
        return mpmath.harmonic(m)
    return mpmath.zeta(mpmath.mpf(a)) - mpmath.zeta(mpmath.mpf(a), m + 1)


@pytest.mark.parametrize("a", [0.2, 0.5, 2.0 / 3.0, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 4.0 / 3.0,
                               2.0, 3.0, 4.0])
def test_p_series_matches_mpmath(a):
    # the first 64 terms are summed directly, the rest by Euler-Maclaurin;
    # a numpy exponent still gives plain floats, which the CSV prints by repr
    marks = [1, 5, 64, 65, 10**2, 10**3, 10**6, 10**12, 10**15]
    got = p_series(np.float64(a), marks).partial_sums
    assert [m for m, _ in got] == marks
    with mpmath.workdps(40):
        for m, s in got:
            assert type(s) is float
            exact = _exact_partial_sum(a, m)
            assert abs((s - exact) / exact) <= 1e-14, (a, m)


@pytest.mark.parametrize("delta", [1e-15, 1e-12, 1e-9, 1e-6, -1e-15, -1e-12, -1e-9, -1e-6])
@pytest.mark.parametrize("m", [1, 10, 10**6, 10**15])
def test_integral_test_brackets_near_one_match_mpmath(delta, m):
    # (b^(1-a) - 1)/(1 - a) cancels as a nears 1: 0.11 % off at a = 1 + 1e-15
    a = 1.0 + delta
    with mpmath.workdps(40):
        A = mpmath.mpf(a)
        F = lambda b: (mpmath.mpf(b) ** (1 - A) - 1) / (1 - A)
        for got, exact in zip(integral_test_brackets(a, m), (F(m + 1), 1 + F(m))):
            assert abs((got - exact) / exact) <= 1e-12


@pytest.mark.parametrize("j", range(1, 19))
def test_checkpoints_never_pass_the_truncation(j):
    # a float log10 rounds 10^j - 1 up to j for j >= 15
    for M in (10**j - 1, 10**j, 10**j + 1):
        marks = nontrivial._checkpoints(M)
        assert marks[-1] == M
        assert all(m <= M for m in marks)
        decades = [10**i for i in range(1, 20) if 10**i <= M]
        assert marks == decades + ([] if decades[-1:] == [M] else [M])


def test_subdivision_image_matches_the_cochain_built_key_by_key():
    # the reference builds omega's cochain from a {vertex: value} dict and
    # reads every half-edge entry by key
    fam = build_family(0, PI, 1.0, 1000)
    rep = subdivision_image(fam)
    omega = nontrivial._omega_at_vertices(fam)[1]
    Kp, geo = fam.subdivided, fam.geometry_cap
    ref = coboundary(Cochain(0, {(v,): w for v, w in enumerate(omega.tolist())}, Kp))
    assert rep.cochain == ref
    vals = np.array([[ref((j - 1, geo + j)), ref((j, geo + j))] for j in range(1, geo + 1)])
    w = fam.weight(np.arange(1, geo + 1))[:, None] / math.e
    assert rep.max_constant_error == float(np.max(np.abs(np.abs(vals) - w)))


def test_verify_nontriviality_and_csv():
    rep = verify_nontriviality(PI, 1.0, [100, 10**4])
    assert rep.passed
    lines = rep.csv().splitlines()
    assert lines[0] == "m,S_pk,S_pk1,tail_bound"
    assert len(lines) >= 4
    # a verdict carries only what the checks read: no norm constant, no tail
    assert [f.name for f in dataclasses.fields(SeriesVerdict)] == [
        "exponent", "verdict", "partial_sums"]


def test_verify_nontriviality_records_every_requested_truncation():
    rep = verify_nontriviality(PI, 1.0, [50, 10**4])
    for got in (rep.omega_high, rep.domega_low):
        assert [m for m, _ in got.partial_sums] == [10, 50, 100, 1000, 10**4]
        assert got.sum_at(50) == p_series(got.exponent, [50]).sum_at(50)
    assert len(rep.csv().splitlines()) == 6


def test_swapped_sequence_all_converge():
    out = swapped_series(PiSequence((4.0, 2.0), 1), 1.0, 10**4)
    assert all(v.verdict == "converges" for v in out.values())
    assert sorted(v.exponent for v in out.values()) == [2.0, 4.0]


@pytest.mark.parametrize("eps", [2.0, 3.0, 0.0])
def test_swapped_series_refuses_eps_outside_its_range(eps):
    # eps must be positive; at eps = p_{k+1} the decay divides by zero, and
    # beyond it the series would diverge
    with pytest.raises(BadEpsilon):
        swapped_series(PiSequence((4.0, 2.0), 1), eps, 10**4)


@pytest.mark.parametrize("checkpoints, message", [
    ([0, 10], "truncation 0 is below 1"),
    ([10, -3], "truncation -3 is below 1"),
    ([], "no truncation given"),
])
def test_p_series_refuses_bad_truncations(checkpoints, message):
    with pytest.raises(ValueError, match=message):
        p_series(2.0, checkpoints)


def test_verify_nontriviality_refuses_an_empty_truncation_list():
    with pytest.raises(ValueError, match="no truncation given"):
        verify_nontriviality(PI, 1.0, [])
