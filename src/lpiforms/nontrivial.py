"""Weighted bump family on a truncated ray and its convergence diagnostics.

For a degree sequence with p_k < p_{k+1} and 0 < eps < p_{k+1} - p_k, the
forms omega_i = i^(-1/(p_{k+1}-eps)) * Psi_i (one smooth bump per cell,
supports pairwise disjoint) integrate to zero over every simplex of the
host complex, yet the p-series controlling their Sobolev norms converge
at exponent p_{k+1} and diverge at exponent p_k.  On the barycentric
subdivision the integrals no longer cancel, so the image cochain exhibits
the same convergent/divergent gap; this is the numeric content of the
obstruction to splitting off the kernel of the integration map.

Only the exponents p * decay decide the verdicts, so every certificate is
one of two raw series sum_i i^(-p * decay), at p = p_k and p = p_{k+1};
no norm constant is computed.  A partial sum is the first 64 terms summed
directly plus the Euler-Maclaurin formula for the rest (see `p_series`),
so it costs the same at any truncation (10^6 by default, up to 10^15 and
beyond), while the subdivided ray is only built up to a geometry cap,
since the per-bump geometry is identical beyond it.

Each bump is a 0-form, so by Stokes' theorem its edge integrals are
differences of its values: both checks evaluate omega once, at the
vertices of the subdivided ray, and take the coboundary.  Every bump
vanishes at the host vertices and is w_i Psi(0) = w_i/e at its carrier's
barycenter, so no integral is computed by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cochains import Cochain, coboundary
from .complexes import MetricComplex, PiSequence, barycentric_subdivide, ray_complex
from .errors import BadEpsilon, BadExponent, NotACounterexample

GEOMETRY_CAP = 1000


def bump_profile(x):
    """Psi(x) = exp(1/(x^2 - 1)) inside (-1, 1), 0 outside; an array of
    points gives an array, a single point a float."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = x**2 < 1.0
    out[inside] = np.exp(1.0 / (x[inside] ** 2 - 1.0))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SeriesVerdict:
    """Integral-test verdict for sum_i i^(-a), with partial sums recorded
    at checkpoint truncations."""

    exponent: float
    verdict: str  # "converges" | "diverges"
    partial_sums: tuple[tuple[int, float], ...]

    def sum_at(self, m: int) -> float:
        return dict(self.partial_sums)[m]


def p_series(a: float, checkpoints: list[int]) -> SeriesVerdict:
    """Partial sums S_M = sum_{i <= M} i^(-a) at the given truncations, plus
    the integral-test verdict (converges iff a > 1).

    No array of terms is built, so time and memory do not grow with M.  The
    first N_0 = 64 terms are summed directly (`math.fsum`), and a truncation
    M <= N_0 is summed directly in full.  Beyond N_0, Euler-Maclaurin
    summation with f(x) = x^(-a) and F = `_antiderivative` gives
        S_M = S_{N_0} + F(M) - F(N_0) + (f(M) - f(N_0))/2
              + sum_{k=1..5} B_2k/(2k)! (f^(2k-1)(M) - f^(2k-1)(N_0)).
    As f is completely monotone, the error is below the first omitted
    correction, B_12/12! (f^(11)(M) - f^(11)(N_0)): under 1e-20 of S_M for
    every a > 0."""
    terms = np.arange(1, _DIRECT + 1, dtype=float) ** -a
    head, start = math.fsum(terms), _em_end(a, _DIRECT)
    sums = tuple((m, math.fsum(terms[:m]) if m <= _DIRECT else head + (_em_end(a, m) - start))
                 for m in _truncations(checkpoints))
    return SeriesVerdict(a, "converges" if a > 1.0 else "diverges", sums)


_DIRECT = 64  # N_0, the terms of a p-series summed one by one
# B_2k/(2k)! for k = 1..5, the Euler-Maclaurin correction coefficients
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160)


def _antiderivative(a: float, x: float) -> float:
    """F(x) = int_1^x t^(-a) dt: log x at a = 1, otherwise
    expm1((1 - a) log x)/(1 - a), which keeps its relative accuracy as a
    approaches 1, where (x^(1-a) - 1)/(1 - a) cancels."""
    if a == 1.0:
        return math.log(x)
    return math.expm1((1.0 - a) * math.log(x)) / (1.0 - a)


def _em_end(a: float, x: int) -> float:
    """The terms of the Euler-Maclaurin formula taken at the end x:
    F(x) + f(x)/2 + sum_k B_2k/(2k)! f^(2k-1)(x), with f(x) = x^(-a), whose
    odd derivatives are f^(2k-1)(x) = -a (a+1) ... (a+2k-2) x^(-a-2k+1)."""
    x = float(x)
    f = x**-a
    deriv, corr = -a * f / x, 0.0
    for k, c in enumerate(_EM_COEFFS, start=1):
        corr += c * deriv
        deriv *= (a + 2 * k - 1) * (a + 2 * k) / (x * x)
    return float(_antiderivative(a, x) + (f / 2.0 + corr))


def _truncations(ms) -> list[int]:
    """The distinct truncations, ascending; an empty list or one below 1 is refused."""
    out = sorted({int(m) for m in ms})
    if not out or out[0] < 1:
        raise ValueError(f"truncation {out[0]} is below 1" if out else "no truncation given")
    return out


def _checkpoints(M: int) -> list[int]:
    """The truncations recorded in a series: 10, 100, ... up to M, then M."""
    # M has len(str(M)) - 1 decades, counted exactly (a float log10 rounds
    # up at M = 10^j - 1 for j >= 15)
    out = [10**j for j in range(1, len(str(M)))]
    if M not in out:
        out.append(M)
    return out


def integral_test_brackets(a: float, m: int) -> tuple[float, float]:
    """Bounds int_1^{m+1} x^-a dx <= S_m <= 1 + int_1^m x^-a dx."""
    return _antiderivative(a, m + 1), 1.0 + _antiderivative(a, m)


@dataclass(frozen=True)
class BumpFamily:
    """The bumps omega_i = w_i Psi_i, i = 1..M, with w_i = i^(-1/(p_{k+1}-eps)),
    each supported in the interior of the i-th top cell of a truncated ray."""

    k: int
    pi: PiSequence
    eps: float
    M: int
    subdivided: MetricComplex = field(repr=False)

    @property
    def geometry_cap(self) -> int:
        """The number of bumps on the built ray, min(M, GEOMETRY_CAP)."""
        return min(self.M, GEOMETRY_CAP)

    @property
    def decay(self) -> float:
        return 1.0 / (self.pi[self.k + 1] - self.eps)

    def weight(self, i) -> float:
        return np.asarray(i, dtype=float) ** (-self.decay)


def build_family(k: int, pi: PiSequence, eps: float, M: int) -> BumpFamily:
    if k != 0:
        raise NotACounterexample("only the 1-D family (k = 0) is constructed")
    if not pi.is_valid():
        raise BadExponent(f"{pi} is not valid: each p in (1, inf), 1/p_(i+1) - 1/p_i <= 1/n")
    if pi[k] >= pi[k + 1]:
        raise NotACounterexample(f"p_{k} = {pi[k]} >= p_{k + 1} = {pi[k + 1]}: monotone sequence")
    gap = pi[k + 1] - pi[k]
    if not (0.0 < eps < gap):
        raise BadEpsilon(f"eps = {eps} outside (0, {gap})")
    return BumpFamily(k=k, pi=pi, eps=eps, M=M,
                      subdivided=barycentric_subdivide(ray_complex(1, min(M, GEOMETRY_CAP))))


def family_norm_series(fam: BumpFamily, p: float) -> SeriesVerdict:
    """The raw series sum_{i <= M} i^(-p * decay) behind every L_p and l_p
    norm of the family (omega, d omega and the image cochain alike): those
    norms differ from it only by constant factors, which leave the verdict."""
    return p_series(p * fam.decay, _checkpoints(fam.M))


def _omega_at_vertices(fam: BumpFamily) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates x of the subdivided ray's vertices, by id, and omega
    at them: the vertex at x lies in carrier i = floor(x) + 1, where omega
    is w_i Psi(2x - 2i + 1)."""
    x = fam.subdivided.coords(range(2 * fam.geometry_cap + 1))[:, 0]
    i = np.floor(x) + 1.0
    return x, fam.weight(i) * bump_profile(2.0 * x - 2.0 * i + 1.0)


@dataclass(frozen=True)
class KernelReport:
    max_point_value: float
    max_edge_integral: float
    bumps_checked: int

    @property
    def max_residual(self) -> float:
        return max(self.max_point_value, self.max_edge_integral)


def derham_kernel_check(fam: BumpFamily) -> KernelReport:
    """Integrate omega over the vertices of the host ray and d(omega) over
    its edges; all values must vanish.  The host vertices keep their ids
    0..geo in the subdivision, and by Stokes the integral over the edge
    (i-1, i) is omega(i) - omega(i-1)."""
    geo = fam.geometry_cap
    host = _omega_at_vertices(fam)[1][: geo + 1]
    return KernelReport(float(np.max(np.abs(host))), float(np.max(np.abs(np.diff(host)))), geo)


@dataclass(frozen=True)
class ImageReport:
    cochain: Cochain
    max_constant_error: float
    opposite_signs: bool
    lp_high: SeriesVerdict  # l_{p_{k+1}} of the image entries (converges)
    lp_low: SeriesVerdict   # l_{p_k} of the image entries (diverges)


def subdivision_image(fam: BumpFamily) -> ImageReport:
    """The cochain I(d omega) on the subdivided ray.

    By Stokes it is the coboundary of omega at the vertices: w_i/e on the
    half-edges from the ends of carrier i to its barycenter (signs opposite
    when both are oriented by increasing coordinate).  The l_p series of the
    entries are 2 (w_i/e)^p summed, convergent at p_{k+1} and divergent at p_k.
    """
    return _subdivision_image(fam, family_norm_series(fam, fam.pi[fam.k + 1]),
                              family_norm_series(fam, fam.pi[fam.k]))


def _subdivision_image(fam: BumpFamily, high: SeriesVerdict, low: SeriesVerdict) -> ImageReport:
    Kp, geo = fam.subdivided, fam.geometry_cap
    x, omega = _omega_at_vertices(fam)
    c = coboundary(Cochain._from_vector(Kp, 0, omega))
    # every edge is a half-edge from an end u of its carrier j, vertex j-1 or
    # j, to the barycenter b = geo + j; the vertex ids 0..2 geo are their ranks
    u, b = Kp._tables[0][1].T
    j = b - geo
    # row j-1: the entries on carrier j's half-edges from vertex j-1 and from j
    vals, rising = np.empty((geo, 2)), np.empty((geo, 2), dtype=bool)
    vals[j - 1, u - j + 1] = c._vector()
    rising[j - 1, u - j + 1] = x[b] > x[u]
    w = fam.weight(np.arange(1, geo + 1))[:, None] / math.e
    worst = float(np.max(np.abs(np.abs(vals) - w)))
    # re-orient by increasing coordinate for the sign pattern
    oriented = np.where(rising, vals, -vals)
    signs_ok = bool(np.all(oriented[:, 0] * oriented[:, 1] < 0.0))
    return ImageReport(c, worst, signs_ok, high, low)


@dataclass(frozen=True)
class NonTrivReport:
    family: BumpFamily = field(repr=False)
    kernel: KernelReport
    omega_high: SeriesVerdict
    domega_high: SeriesVerdict
    domega_low: SeriesVerdict
    image: ImageReport
    growth_ratio: float  # S_m / (m^(1-a)/(1-a)) at the largest checkpoint
    passed: bool

    def csv(self) -> str:
        lines = ["m,S_pk,S_pk1,tail_bound"]
        for (m, s_lo), (_, s_hi) in zip(
            self.domega_low.partial_sums, self.domega_high.partial_sums
        ):
            a = self.domega_high.exponent
            tail = m ** (1.0 - a) / (a - 1.0)
            lines.append(f"{m},{s_lo!r},{s_hi!r},{tail!r}")
        return "\n".join(lines) + "\n"


def verify_nontriviality(
    pi: PiSequence, eps: float, M_list: list[int], k: int = 0
) -> NonTrivReport:
    """Bundle the four certificates of the counterexample: kernel
    membership, p_{k+1} convergence (for omega and d omega), p_k
    divergence, and the convergent/divergent gap of the subdivision image."""
    marks = _truncations(M_list)
    fam = build_family(k, pi, eps, marks[-1])
    kernel = derham_kernel_check(fam)
    # every verdict is one of two series: omega and d omega share p_{k+1};
    # both record every requested truncation besides the checkpoints of M
    marks += _checkpoints(fam.M)
    high, low = p_series(pi[k + 1] * fam.decay, marks), p_series(pi[k] * fam.decay, marks)
    image = _subdivision_image(fam, high, low)
    m_last, s_last = low.partial_sums[-1]
    a = low.exponent
    growth = s_last / (m_last ** (1.0 - a) / (1.0 - a)) if a < 1.0 else math.nan
    ok = (
        kernel.max_residual <= 1e-10
        and high.verdict == "converges"
        and low.verdict == "diverges"
        and image.opposite_signs
        and image.max_constant_error <= 1e-10
    )
    return NonTrivReport(
        family=fam, kernel=kernel, omega_high=high, domega_high=high, domega_low=low,
        image=image, growth_ratio=growth, passed=ok,
    )


def swapped_series(pi: PiSequence, eps: float, M: int, k: int = 0) -> dict[float, SeriesVerdict]:
    """Formal series for a non-increasing sequence: with p_k >= p_{k+1}
    the exponents p/(p_{k+1}-eps) exceed 1 at both norms and every series
    converges — the counterexample evaporates.  Needs 0 < eps < p_{k+1}."""
    if not 0.0 < eps < pi[k + 1]:
        raise BadEpsilon(f"eps = {eps} outside (0, {pi[k + 1]})")
    decay = 1.0 / (pi[k + 1] - eps)
    return {p: p_series(p * decay, _checkpoints(M)) for p in (pi[k], pi[k + 1])}
