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
no norm constant is computed.  Series are evaluated in closed vectorized
form up to the full truncation length (10^6 by default) while the
subdivided ray is only built up to a geometry cap, since the per-bump
geometry is identical beyond it.

Every edge integral of the family is a 96-point Gauss-Legendre sum on
the library's one Gauss rule, `polyform.simplex_rule(1, 191)`.  The
kernel check integrates all bumps on their carrier edges as one
(bumps, nodes) array, and the subdivision image all half-edges as one
(bumps, 2, nodes) array, so the cost per bump is array arithmetic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cochains import Cochain
from .complexes import MetricComplex, PiSequence, barycentric_subdivide, ray_complex
from .errors import BadEpsilon, NotACounterexample
from .polyform import simplex_rule

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


def bump_profile_deriv(u):
    """d/du of the 1-D profile: Psi(u) * (-2u / (u^2 - 1)^2)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u, dtype=float)
    inside = u**2 < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 / (ui**2 - 1.0)) * (-2.0 * ui / (ui**2 - 1.0) ** 2)
    return out


@dataclass(frozen=True)
class SeriesVerdict:
    """Integral-test verdict for sum_i i^(-a), with partial sums recorded
    at checkpoint truncations."""

    exponent: float
    verdict: str  # "converges" | "diverges"
    partial_sums: tuple[tuple[int, float], ...]

    def sum_at(self, m: int) -> float:
        for mm, s in self.partial_sums:
            if mm == m:
                return s
        raise KeyError(m)


def p_series(a: float, checkpoints: list[int]) -> SeriesVerdict:
    """Partial sums of sum i^(-a) at the given truncations, plus the
    integral-test verdict (converges iff a > 1)."""
    checkpoints = sorted(set(int(m) for m in checkpoints))
    M = checkpoints[-1]
    csum = np.arange(1, M + 1, dtype=float)  # one buffer: terms, then sums
    np.power(csum, -a, out=csum)
    np.cumsum(csum, out=csum)
    sums = tuple((m, float(csum[m - 1])) for m in checkpoints)
    return SeriesVerdict(a, "converges" if a > 1.0 else "diverges", sums)


def _checkpoints(M: int) -> list[int]:
    """The truncations recorded in a series: 10, 100, ... up to M, then M."""
    out = [10**j for j in range(1, int(math.log10(M)) + 1)]
    if M not in out:
        out.append(M)
    return out


def integral_test_brackets(a: float, m: int) -> tuple[float, float]:
    """Bounds int_1^{m+1} x^-a dx <= S_m <= 1 + int_1^m x^-a dx."""
    def F(b):
        if a == 1.0:
            return math.log(b)
        return (b ** (1.0 - a) - 1.0) / (1.0 - a)
    return F(m + 1), 1.0 + F(m)


@dataclass(frozen=True)
class BumpFamily:
    """The bumps omega_i = w_i Psi_i, i = 1..M, with w_i = i^(-1/(p_{k+1}-eps)),
    each supported in the interior of the i-th top cell of a truncated ray."""

    k: int
    pi: PiSequence
    eps: float
    M: int
    subdivided: MetricComplex = field(repr=False)
    geometry_cap: int = GEOMETRY_CAP

    @property
    def decay(self) -> float:
        return 1.0 / (self.pi[self.k + 1] - self.eps)

    def weight(self, i) -> float:
        return np.asarray(i, dtype=float) ** (-self.decay)


def build_family(k: int, pi: PiSequence, eps: float, M: int) -> BumpFamily:
    if pi[k] >= pi[k + 1]:
        raise NotACounterexample(
            f"p_{k} = {pi[k]} >= p_{k + 1} = {pi[k + 1]}: monotone sequence"
        )
    gap = pi[k + 1] - pi[k]
    if not (0.0 < eps < gap):
        raise BadEpsilon(f"eps = {eps} outside (0, {gap})")
    if k != 0:
        raise NotACounterexample("only the 1-D family (k = 0) is constructed")
    geo = min(M, GEOMETRY_CAP)
    return BumpFamily(k=k, pi=pi, eps=eps, M=M,
                      subdivided=barycentric_subdivide(ray_complex(1, geo)), geometry_cap=geo)


def family_norm_series(fam: BumpFamily, p: float) -> SeriesVerdict:
    """The raw series sum_{i <= M} i^(-p * decay) behind every L_p and l_p
    norm of the family (omega, d omega and the image cochain alike): those
    norms differ from it only by constant factors, which leave the verdict."""
    return p_series(p * fam.decay, _checkpoints(fam.M))


def _edge_quad(fn, x0, x1) -> np.ndarray:
    """Integrals of fn over the intervals [x0, x1] by a 96-node
    Gauss-Legendre rule, one per element of the broadcast endpoint arrays.
    fn receives the quadrature points with the node axis last and returns
    values of the same shape."""
    t, w = simplex_rule(1, 191)  # the 96-point rule on [0, 1], weights summing to 1
    x0 = np.asarray(x0, dtype=float)
    L = np.asarray(x1, dtype=float) - x0
    return L * (fn(x0[..., None] + L[..., None] * t[:, 0]) @ w)


def _domega(fam: BumpFamily, i: np.ndarray):
    """x -> d(omega_i)/dx, for bump indices i along the leading axes of x."""
    w = 2.0 * fam.weight(i)
    centre = 2.0 * i - 1.0
    return lambda x: w[..., None] * bump_profile_deriv(2.0 * x - centre[..., None])


@dataclass(frozen=True)
class KernelReport:
    max_point_value: float
    max_edge_integral: float
    bumps_checked: int

    @property
    def max_residual(self) -> float:
        return max(self.max_point_value, self.max_edge_integral)


def derham_kernel_check(fam: BumpFamily) -> KernelReport:
    """Integrate omega_i over vertices and d(omega_i) over edges of the
    host ray; all values must vanish (supports are interior to single
    edges, and each edge integral of the derivative telescopes to 0)."""
    geo = fam.geometry_cap
    i = np.arange(1, geo + 1, dtype=float)
    # omega_i at the vertices of its carrier edge (x = i-1 and x = i)
    ends = np.stack([i - 1.0, i], axis=-1)
    pts = fam.weight(i)[:, None] * bump_profile(2.0 * ends - (2.0 * i - 1.0)[:, None])
    edges = _edge_quad(_domega(fam, i), i - 1.0, i)
    return KernelReport(float(np.max(np.abs(pts))), float(np.max(np.abs(edges))), geo)


@dataclass(frozen=True)
class ImageReport:
    cochain: Cochain
    max_constant_error: float
    opposite_signs: bool
    lp_high: SeriesVerdict  # l_{p_{k+1}} of the image entries (converges)
    lp_low: SeriesVerdict   # l_{p_k} of the image entries (diverges)


def subdivision_image(fam: BumpFamily) -> ImageReport:
    """The cochain I(d omega) on the subdivided ray.

    Each bump contributes +/- (1/e) w_i on the two half-edges of its
    carrier (signs opposite when both halves are oriented by increasing
    coordinate).  The l_p series of the entries are 2 (w_i/e)^p summed,
    convergent at p_{k+1} and divergent at p_k.
    """
    return _subdivision_image(fam, family_norm_series(fam, fam.pi[fam.k + 1]),
                              family_norm_series(fam, fam.pi[fam.k]))


def _subdivision_image(fam: BumpFamily, high: SeriesVerdict, low: SeriesVerdict) -> ImageReport:
    Kp = fam.subdivided
    geo = fam.geometry_cap
    # the two half-edges of carrier i, from vertex i-1 and from vertex i; the
    # subdivision numbers the barycenter of edge (i-1, i) as vertex geo + i
    keys = [(v0, geo + i) for i in range(1, geo + 1) for v0 in (i - 1, i)]
    ends = np.array([[Kp.vertices[a][0], Kp.vertices[b][0]] for a, b in keys])
    ends = ends.reshape(geo, 2, 2)
    i = np.arange(1, geo + 1, dtype=float)[:, None]
    vals = _edge_quad(_domega(fam, i), ends[..., 0], ends[..., 1])
    worst = float(np.max(np.abs(np.abs(vals) - fam.weight(i) / math.e)))
    # re-orient by increasing coordinate for the sign pattern
    oriented = np.where(ends[..., 1] > ends[..., 0], vals, -vals)
    signs_ok = bool(np.all(oriented[:, 0] * oriented[:, 1] < 0.0))
    c = Cochain(fam.k + 1, dict(zip(keys, vals.ravel().tolist())), Kp)
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
    fam = build_family(k, pi, eps, max(M_list))
    kernel = derham_kernel_check(fam)
    # every verdict is one of two series: omega and d omega share p_{k+1}
    high, low = family_norm_series(fam, pi[k + 1]), family_norm_series(fam, pi[k])
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
    converges — the counterexample evaporates."""
    decay = 1.0 / (pi[k + 1] - eps)
    return {p: p_series(p * decay, _checkpoints(M)) for p in (pi[k], pi[k + 1])}
