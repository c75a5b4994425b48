"""The four benchmark workloads and the checks that gate them.

Each workload has a `setup(rng, quick)` that builds its seeded inputs and a
`run(inputs, checks)` that makes the verification calls and asserts the
paper's tolerances through `Checks`.  `quick` shrinks every size to its
smallest useful value; only the self-check uses it.

Library functions are always looked up on their module at call time
(`lp.derham.whitney`, never a name bound at import), so the wrappers that
`tracing` installs see every call the workload makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
from types import SimpleNamespace

import numpy as np

MODULES = ("complexes", "cochains", "polyform", "derham", "mollify",
           "nontrivial", "contract", "cli")

# `lpiforms.contract` is shadowed by the function of that name in the package
# namespace, so modules are fetched with import_module, not attribute access.
lp = SimpleNamespace(**{m: importlib.import_module(f"lpiforms.{m}") for m in MODULES})


class Checks:
    """Counts tolerance assertions; a raised exception is one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, value=None) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {value!r}")

    @contextlib.contextmanager
    def step(self, name: str):
        try:
            yield
        except Exception as exc:  # the run goes on; the step counts as failed
            self.attempted += 1
            self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")


def _subdivided_strip(M: int):
    return lp.complexes.barycentric_subdivide(lp.complexes.ray_complex(2, M))


def _simplex(n: int):
    verts = {i: tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n + 1)}
    return lp.complexes.build_complex(verts, [tuple(range(n + 1))])


def _regular_simplex(k: int):
    s = 1.0 / math.sqrt(2.0)
    verts = {i: tuple(s if j == i else 0.0 for j in range(k + 1)) for i in range(k + 1)}
    return lp.complexes.build_complex(verts, [tuple(range(k + 1))])


def _triangle():
    return lp.complexes.build_complex(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, math.sqrt(3) / 2)}, [(0, 1, 2)]
    )


def _random_terms(rng, m: int, k: int, count: int, max_exp: int,
                  integer: bool = False) -> dict:
    terms = {}
    for _ in range(count):
        exps = tuple(int(rng.integers(0, max_exp + 1)) for _ in range(m))
        idx = tuple(sorted(int(i) + 1 for i in rng.choice(m, size=k, replace=False)))
        if integer:
            terms[(exps, idx)] = float(rng.choice((-1, 1)) * rng.integers(1, 10))
        else:
            terms[(exps, idx)] = float(rng.normal())
    return terms


# ---------------------------------------------------------------------------
# mesh_scale: Whitney/de Rham, cochains and the matrix complex as size grows
# ---------------------------------------------------------------------------

LADDER = (32, 64, 128)
# contract.assemble refuses complexes above SIZE_LIMIT = 2000 simplices;
# the subdivided strip at M = 48 has 1,925.
CONTRACT_M = 48
# the exact rational rank oracle is Gaussian elimination on Fractions
COHOMOLOGY_M = 4
MESH_PI = (2.0, 4.0, 4.0)


def whitney_l2_oracle(c) -> float:
    """||W c||_2 of a 1-cochain on a planar triangle mesh, independently of
    polyform: W(chi_ab) = l_a grad l_b - l_b grad l_a on each triangle, and
    int l_i l_j = area (1 + delta_ij) / 12."""
    K = c.complex
    tris = K.simplices_of_dim(2)
    X = np.array([K.coords(T) for T in tris])
    E = X[:, 1:] - X[:, :1]
    area = 0.5 * np.abs(np.linalg.det(E))
    gt = np.linalg.inv(E)  # column j is grad t_j
    grads = np.concatenate([-gt.sum(axis=2, keepdims=True), gt], axis=2)
    G = np.einsum("nia,nib->nab", grads, grads)
    mass = area[:, None, None] / 12.0 * (np.ones((3, 3)) + np.eye(3))
    local = ((0, 1), (0, 2), (1, 2))
    coef = np.array([[c((T[a], T[b])) for a, b in local] for T in tris])
    total = 0.0
    for e, (a, b) in enumerate(local):
        for f, (p, q) in enumerate(local):
            s = (mass[:, a, p] * G[:, b, q] - mass[:, a, q] * G[:, b, p]
                 - mass[:, b, p] * G[:, a, q] + mass[:, b, q] * G[:, a, p])
            total += float(np.sum(coef[:, e] * coef[:, f] * s))
    return math.sqrt(total)


def setup_mesh_scale(rng, quick: bool) -> dict:
    Cochain = lp.cochains.Cochain
    rungs = []
    for M in (8, 16) if quick else LADDER:
        K = _subdivided_strip(M)
        c1 = Cochain(1, {e: float(rng.normal()) for e in K.simplices_of_dim(1)}, K)
        # integer values keep d(d c0) = 0 exact in floating point
        c0 = Cochain(0, {v: float(rng.integers(-9, 10)) for v in K.simplices_of_dim(0)}, K)
        rungs.append((M, K, c1, c0))
    return {
        "rungs": rungs,
        "contract": _subdivided_strip(COHOMOLOGY_M if quick else CONTRACT_M),
        "cohomology": _subdivided_strip(COHOMOLOGY_M),
        "pi": lp.complexes.PiSequence(MESH_PI, 2),
    }


def run_mesh_scale(inp: dict, checks: Checks) -> None:
    d, co, ct = lp.derham, lp.cochains, lp.contract
    for M, K, c1, c0 in inp["rungs"]:
        with checks.step(f"mesh M={M}"):
            form = d.whitney(c1)
            image = d.derham_map(form, K, 1)
            err = max(abs(image(s) - c1(s)) for s in K.simplices_of_dim(1))
            checks.check(f"retraction M={M}", err <= 1e-10, err)
            stokes = d.verify_stokes(form, K).max_stokes_error
            checks.check(f"stokes M={M}", stokes <= 1e-10, stokes)
            l2, ref = form.lp_norm(2.0), whitney_l2_oracle(c1)
            checks.check(f"whitney l2 M={M}", abs(l2 - ref) <= 1e-10 * ref, (l2, ref))
            dd = co.coboundary(co.coboundary(c0))
            checks.check(f"dd=0 M={M}", not dd.values, len(dd.values))
            dc = co.coboundary(c1)
            pn = co.pi_norm(c1, inp["pi"])
            parts = co.lp_norm(c1, MESH_PI[1]) + co.lp_norm(dc, MESH_PI[2])
            checks.check(f"pi_norm M={M}", abs(pn - parts) <= 1e-12 * parts, (pn, parts))
    with checks.step("contract"):
        mc = ct.assemble(inp["contract"], augmented=True)
        h = ct.contract(mc)
        built = isinstance(h, ct.Contraction)
        checks.check("contraction built", built, h)
        if built:
            rep = ct.verify_contraction(mc, h, tol=1e-8)
            checks.check("contraction residual", rep.passed, rep.max_residual)
    with checks.step("cohomology"):
        mc = ct.assemble(inp["cohomology"])
        dims, exact = ct.cohomology_dims(mc), ct.rational_cohomology_dims(mc)
        checks.check("svd ranks == rational ranks", dims == exact, (dims, exact))
        checks.check("strip is acyclic", exact == [1, 0, 0], exact)


# ---------------------------------------------------------------------------
# form_algebra: term algebra and quadrature on small complexes
# ---------------------------------------------------------------------------

def setup_form_algebra(rng, quick: bool) -> dict:
    co, pf, cx = lp.cochains, lp.polyform, lp.complexes
    n_dd, n_poly, n_whit, n_holder, n_prism = (3, 3, 3, 3, 1) if quick else (50, 60, 40, 100, 5)
    S = cx.barycentric_subdivide(_triangle())
    tet = _simplex(3)
    regular = {k: _regular_simplex(k) for k in (1, 2, 3)}
    # degrees cycle instead of being drawn, so every seed does the same work.
    # t_d(t_d(.)) = {} is exact only when the coefficient products are: with
    # normal floats, (c*a)*b and (c*b)*a can differ in the last bit.
    dd_terms = [_random_terms(rng, 3, i % 3, 3, 3, integer=True) for i in range(n_dd)]
    poly_forms = [pf.PolyForm(i % 3, tet, {(0, 1, 2, 3): _random_terms(rng, 3, i % 3, 4, 2)})
                  for i in range(n_poly)]
    whit_cochains = [co.Cochain(i % 2, {s: float(rng.normal()) for s in S.simplices_of_dim(i % 2)}, S)
                     for i in range(n_whit)]
    holder = []
    for _ in range(n_holder):
        pieces = {T: _random_terms(rng, 2, 0, 3, 2) for T in S.maximal_simplices()}
        holder.append(pf.PolyForm(0, S, pieces))
    K1 = cx.build_complex({0: (0.0,), 1: (1.0,)}, [(0,), (1,)])
    K2 = cx.build_complex(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)},
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )
    prism1 = [
        pf.PolyForm(0, K1, {(0,): {((), ()): float(rng.normal())},
                            (1,): {((), ()): float(rng.normal())}})
        for _ in range(2 * n_prism)
    ]
    prism2_c = [co.Cochain(0, {(i,): float(rng.normal()) for i in range(4)}, K2)
                for _ in range(n_prism)]
    prism2_f = [
        pf.PolyForm(1, K2, {e: {((0,), (1,)): float(rng.normal()),
                                ((1,), (1,)): float(rng.normal())}
                            for e in K2.maximal_simplices()})
        for _ in range(n_prism)
    ]
    return {
        "regular": regular,
        "split": (cx.barycentric_subdivide(S), cx.barycentric_subdivide(tet)),
        "samples": 5 if quick else 100,
        "split_seed": int(rng.integers(0, 2**31)),
        "S": S, "tet": tet,
        "dd_terms": dd_terms, "poly_forms": poly_forms,
        "whit_cochains": whit_cochains, "holder": holder,
        "prism1": prism1, "prism2_c": prism2_c, "prism2_f": prism2_f,
        "pi1": cx.PiSequence((2.0, 4.0), 1), "pi2": cx.PiSequence((2.0, 4.0, 4.0), 2),
    }


def run_form_algebra(inp: dict, checks: Checks) -> None:
    d, co, pf = lp.derham, lp.cochains, lp.polyform
    with checks.step("whitney constants"):
        for k, K in inp["regular"].items():
            sigma = tuple(range(k + 1))
            got = d.whitney(co.indicator(K, sigma)).integrate(sigma, weighted=True)
            want = math.sqrt(k + 1.0) / math.sqrt(2.0**k)
            checks.check(f"whitney constant k={k}", abs(got - want) <= 1e-12, got)
            vol = pf.PolyForm(k, K, {sigma: {((0,) * k, tuple(range(1, k + 1))): 1.0}})
            got = vol.integrate(sigma, weighted=True)
            want = math.sqrt(k + 1.0) / (math.factorial(k) * math.sqrt(2.0**k))
            checks.check(f"volume form k={k}", abs(got - want) <= 1e-12, got)
    for K in inp["split"]:
        for k in range(K.dim + 1):
            with checks.step(f"split dim={K.dim} k={k}"):
                rep = d.verify_split(K, k, samples=inp["samples"], seed=inp["split_seed"])
                checks.check(f"split dim={K.dim} k={k}", rep.max_identity_error <= 1e-10,
                             rep.max_identity_error)
    with checks.step("coboundary squared"):
        S = inp["S"]
        for k in (0, 1):
            zero = all(not co.coboundary(co.coboundary(co.indicator(S, s))).values
                       for s in S.simplices_of_dim(k))
            checks.check(f"dd=0 on indicators k={k}", zero)
    with checks.step("t_d squared"):
        for terms in inp["dd_terms"]:
            dd = pf.t_d(pf.t_d(terms, 3), 3)
            checks.check("t_d t_d = 0", dd == {}, dd)
    with checks.step("stokes"):
        for om in inp["poly_forms"]:
            err = d.verify_stokes(om, inp["tet"]).max_stokes_error
            checks.check("stokes polynomial", err <= 1e-10, err)
        for c in inp["whit_cochains"]:
            err = d.verify_stokes(d.whitney(c), inp["S"]).max_stokes_error
            checks.check("stokes whitney", err <= 1e-10, err)
    with checks.step("holder"):
        S = inp["S"]
        mes = sum(S.volume(T) for T in S.maximal_simplices())
        p_k, p_k1 = 4.0, 2.0
        for g in inp["holder"]:
            lhs = g.lp_norm(p_k1)
            rhs = mes ** (1.0 / p_k1 - 1.0 / p_k) * g.lp_norm(p_k)
            checks.check("holder", lhs <= rhs + 1e-8, (lhs, rhs))
    with checks.step("prism"):
        pi1, pi2 = inp["pi1"], inp["pi2"]
        for om in inp["prism1"]:
            ext = pf.prism_extend(om, 1)
            checks.check("prism n=1", ext.omega_pi_norm(pi1) <= 2.0 * om.omega_pi_norm(pi1) + 1e-9)
        for om in [d.whitney(c) for c in inp["prism2_c"]] + inp["prism2_f"]:
            ext = pf.prism_extend(om, 2)
            checks.check(f"prism n=2 k={om.degree}",
                         ext.omega_pi_norm(pi2) <= 2.0 * om.omega_pi_norm(pi2) + 1e-9)


# ---------------------------------------------------------------------------
# ball_mollifier: the grid mollifier, cone operator and support control
# ---------------------------------------------------------------------------

def setup_ball_mollifier(rng, quick: bool) -> dict:
    GridForm = lp.mollify.GridForm
    a, phi = rng.uniform(2.5, 3.5), rng.uniform(-0.5, 0.5)
    b, phi1, phi2 = rng.uniform(1.5, 2.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    r = rng.uniform(0.35, 0.45)
    ladder = [
        GridForm.from_function(1, h, 0, {(): lambda x: np.sin(a * x + phi) * (1 - x**2)})
        for h in (1 / 64, 1 / 128, 1 / 256)
    ]

    def bump(x, y):
        return np.exp(-3 * (x**2 + y**2)) * (1 - x**2 - y**2)

    def cut(x, y):
        rad = np.sqrt(x**2 + y**2)
        return np.where(rad > r, (rad - r) ** 2, 0.0)

    form2 = GridForm.from_function(
        2, 1 / 32 if quick else 1 / 128, 1,
        {(0,): lambda x, y: bump(x, y) * np.sin(b * y + phi1),
         (1,): lambda x, y: bump(x, y) * np.cos(x + y + phi2)},
    )
    cutf = GridForm.from_function(2, 1 / 64, 0, {(): cut})
    return {"ladder": ladder, "form2": form2, "cut": cutf, "r": r}


def run_ball_mollifier(inp: dict, checks: Checks) -> None:
    m = lp.mollify
    with checks.step("1-D homotopy"):
        res = [m.verify_homotopy(f, m.MollifierConfig(0.1, n=1), tol=1e-3).residual
               for f in inp["ladder"]]
        checks.check("1-D residual at h=1/256", res[-1] <= 1e-3, res[-1])
        for coarse, fine in zip(res, res[1:]):
            checks.check("h^2 decay", coarse / fine >= 3.0, coarse / fine)
    with checks.step("2-D homotopy"):
        rep = m.verify_homotopy(inp["form2"], m.MollifierConfig(0.1, n=2), tol=1e-2)
        checks.check("2-D residual", rep.passed, rep.residual)
    with checks.step("support control"):
        deltas = []
        for eps in (0.2, 0.1, 0.05):
            rep = m.verify_support_control(inp["cut"], m.MollifierConfig(eps, n=2), r=inp["r"])
            checks.check(f"support eps={eps}", rep.residual <= 1e-12, rep.residual)
            deltas.append(rep.detail["delta"])
        checks.check("delta shrinks with eps", deltas[0] > deltas[1] > deltas[2] > 0.0, deltas)


# ---------------------------------------------------------------------------
# bump_series: the non-monotone-exponent counterexample
# ---------------------------------------------------------------------------

def setup_bump_series(rng, quick: bool) -> dict:
    # The counterexample has fixed parameters; the seed only names the CSV.
    cx = lp.complexes
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
    os.makedirs(out, exist_ok=True)
    return {
        "pi": cx.PiSequence((2.0, 4.0), 1),
        "swapped": cx.PiSequence((4.0, 2.0), 1),
        # the per-bump geometry stops at 1000 cells, and the paper's
        # thresholds sit at m = 10^3, so the quick size is 10^3 too
        "M_list": [1000] if quick else [100, 10**4, 10**6],
        "trunc": "1e3" if quick else "1e6",
        "csv": os.path.join(out, f"series-{int(rng.integers(0, 2**31))}-{os.getpid()}.csv"),
    }


def _check_sign_pattern(rep, checks: Checks) -> None:
    """Each bump gives +-w_i/e on the two halves of its cell, with opposite
    signs when both halves are oriented by increasing coordinate."""
    fam, values = rep.family, rep.image.cochain.values
    Kp = fam.subdivided
    mid = {int(round(x[0] + 0.5)): v for v, x in Kp.vertices.items()
           if abs(x[0] - round(x[0])) > 1e-9}
    worst, signs = 0.0, True
    for i in range(1, fam.geometry_cap + 1):
        w = float(fam.weight(i)) / math.e
        oriented = []
        for v0 in (i - 1, i):
            key = tuple(sorted((v0, mid[i])))
            val = values.get(key, 0.0)
            worst = max(worst, abs(abs(val) - w))
            rising = Kp.vertices[key[1]][0] > Kp.vertices[key[0]][0]
            oriented.append(val if rising else -val)
        signs &= oriented[0] * oriented[1] < 0.0
    checks.check("image sign pattern", signs)
    checks.check("image entries = w_i/e", worst <= 1e-10, worst)


def run_bump_series(inp: dict, checks: Checks) -> None:
    nt, cli = lp.nontrivial, lp.cli
    with checks.step("nontriviality"):
        rep = nt.verify_nontriviality(inp["pi"], 1.0, inp["M_list"])
        checks.check("report passed", rep.passed)
        checks.check("kernel residual", rep.kernel.max_residual <= 1e-10, rep.kernel.max_residual)
        a = rep.domega_high.exponent
        checks.check("tail bound at 10^3", 1000 ** (1.0 - a) / (a - 1.0) <= 0.3 + 1e-12, a)
        checks.check("p_k+1 converges", rep.domega_high.verdict == "converges")
        s1000 = rep.domega_low.sum_at(1000)
        checks.check("p_k partial sum at 10^3", s1000 > 25.0, s1000)
        growth = s1000 / (3.0 * 1000 ** (1.0 / 3.0))
        checks.check("p_k growth 3 m^(1/3)", abs(growth - 1.0) <= 0.1, growth)
        checks.check("image gap", (rep.image.lp_high.verdict, rep.image.lp_low.verdict)
                     == ("converges", "diverges"))
        _check_sign_pattern(rep, checks)
    with checks.step("swapped"):
        sw = nt.swapped_series(inp["swapped"], 1.0, inp["M_list"][-1])
        checks.check("swapped converges", all(v.verdict == "converges" for v in sw.values()))
    with checks.step("cli csv"):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "nontrivial", "--pk", "2", "--pk1", "4",
                                 "--eps", "1", "--trunc", inp["trunc"], "--csv", inp["csv"]])
            checks.check("cli exit code", code == 0, code)
            checks.check("cli pass line", "pass: True" in out.getvalue(), out.getvalue())
            with open(inp["csv"]) as fh:
                rows = [line.split(",") for line in fh.read().split()[1:]]
        finally:
            if os.path.exists(inp["csv"]):
                os.remove(inp["csv"])
        decay = 1.0 / (inp["pi"][1] - 1.0)
        for row in rows:
            m = int(row[0])
            for p, s in ((inp["pi"][0], float(row[1])), (inp["pi"][1], float(row[2]))):
                lo, hi = nt.integral_test_brackets(p * decay, m)
                checks.check(f"csv S at m={m} p={p}", lo <= s <= hi, (lo, s, hi))


WORKLOADS = {
    "mesh_scale": (setup_mesh_scale, run_mesh_scale),
    "form_algebra": (setup_form_algebra, run_form_algebra),
    "ball_mollifier": (setup_ball_mollifier, run_ball_mollifier),
    "bump_series": (setup_bump_series, run_bump_series),
}
