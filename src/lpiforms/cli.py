"""Command-line driver: construction, norms, and verification suites.

Exit codes: 0 = all asserted tolerances met, 1 = an assertion failed or a
numerical step raised LinAlgError, 2 = usage or parse error.  Reports are
key:value lines; the counterexample suite can also emit a CSV of partial sums.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import complexes
from .contract import (
    ContractionFailure,
    assemble,
    cohomology_dims,
    contract,
    verify_contraction,
)
from .cochains import lp_norm, pi_norm, read_cochain
from .complexes import PiSequence, read_complex
from .errors import LpiFormsError


def _emit(pairs):
    for k, v in pairs:
        print(f"{k}: {v}")


def _load_complex(path: str) -> complexes.MetricComplex:
    with open(path) as fh:
        return read_complex(fh.read())


def cmd_validate(args) -> int:
    K = _load_complex(args.path)
    rep = complexes.validate_bounded_geometry(K, args.L, args.N)
    _emit([
        ("max_vertex_degree", rep.max_vertex_degree),
        ("min_edge_length", rep.min_edge_length),
        ("max_edge_length", rep.max_edge_length),
        ("passes", rep.passes),
    ])
    for key, msg in rep.violations:
        print(f"violation: {key} {msg}")
    return 0 if rep.passes else 1


def cmd_subdivide(args) -> int:
    K = _load_complex(args.path)
    Kp = complexes.barycentric_subdivide(K)
    text = complexes.write_complex(Kp)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _emit([("top_simplices", len(Kp.maximal_simplices()))])
    return 0


def cmd_norm(args) -> int:
    K = _load_complex(args.path)
    with open(args.cochain) as fh:
        c = read_cochain(fh.read(), K)
    if args.pi:
        ps = [float(x) for x in args.pi.split(",")]
        while len(ps) < K.dim + 1:  # pad with the last exponent
            ps.append(ps[-1])
        value = pi_norm(c, PiSequence(tuple(ps), len(ps) - 1))
        _emit([("pi_norm", repr(value))])
    else:
        value = lp_norm(c, args.p)
        _emit([("lp_norm", repr(value))])
    return 0


def cmd_whitney(args) -> int:
    from .derham import whitney

    K = _load_complex(args.path)
    with open(args.cochain) as fh:
        c = read_cochain(fh.read(), K)
    form = whitney(c)
    _emit([
        ("degree", form.degree),
        ("pieces", len(form.pieces)),
        ("l2_norm", repr(form.lp_norm(2.0))),
        ("sup_norm", repr(max((form.sup_norm(T) for T in form.pieces), default=0.0))),
    ])
    return 0


def cmd_derham(args) -> int:
    """Round trip: Whitney form of the cochain, integrated back."""
    from .derham import derham_map, whitney

    K = _load_complex(args.path)
    with open(args.cochain) as fh:
        c = read_cochain(fh.read(), K)
    image = derham_map(whitney(c), K, c.degree, weighted=args.weighted)
    keys = set(image.values) | set(c.values)
    err = max((abs(image(s) - c(s)) for s in keys), default=0.0)
    _emit([("round_trip_error", repr(err))])
    return 0


def cmd_cohomology(args) -> int:
    K = _load_complex(args.path)
    M = assemble(K, augmented=args.augmented)
    dims = cohomology_dims(M)
    _emit([("cohomology_dims", " ".join(str(d) for d in dims))])
    return 0


def cmd_contract(args) -> int:
    K = _load_complex(args.path)
    M = assemble(K, augmented=args.augmented)
    result = contract(M)
    if isinstance(result, ContractionFailure):
        _emit([
            ("contraction", "failed"),
            ("failure_degree", result.degree),
            ("residual", repr(result.residual)),
        ])
        return 1
    rep = verify_contraction(M, result, tol=args.tol)
    _emit([("contraction", "ok"), ("max_residual", repr(rep.max_residual))])
    return 0 if rep.passed else 1


def _default_split_complex():
    tri = complexes.build_complex(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 3**0.5 / 2)}, [(0, 1, 2)]
    )
    return complexes.barycentric_subdivide(tri)


def _verify_split(args) -> tuple[bool, list]:
    from .derham import verify_split

    K = _load_complex(args.complex) if args.complex else _default_split_complex()
    rep = verify_split(K, args.k, args.samples, seed=args.seed)
    ok = rep.max_identity_error <= args.tol
    return ok, [
        ("samples", rep.sample_count),
        ("max_identity_error", repr(rep.max_identity_error)),
        ("tol", args.tol),
    ]


def _verify_stokes(args) -> tuple[bool, list]:
    from .derham import verify_stokes
    from .polyform import PolyForm

    from .cochains import Cochain
    from .derham import whitney

    K = _load_complex(args.complex) if args.complex else _default_split_complex()
    rng = np.random.default_rng(args.seed)
    tops = K.maximal_simplices()
    worst = 0.0
    for _ in range(args.samples):
        k = int(rng.integers(0, K.dim))
        if len(tops) == 1:
            # single cell: arbitrary polynomial coefficients are fine
            T = tops[0]
            m = len(T) - 1
            terms = {}
            for _ in range(3):
                exps = tuple(int(rng.integers(0, 3)) for _ in range(m))
                idx = tuple(sorted(rng.choice(m, size=k, replace=False) + 1))
                terms[(exps, idx)] = float(rng.normal())
            omega = PolyForm(k, K, {T: terms})
        else:
            # shared faces need matching traces: use Whitney images
            sig = K.simplices_of_dim(k)
            vals = {s: float(rng.normal()) for s in sig}
            omega = whitney(Cochain(k, vals, K))
        worst = max(worst, verify_stokes(omega, K).max_stokes_error)
    return worst <= args.tol, [
        ("samples", args.samples),
        ("max_stokes_error", repr(worst)),
        ("tol", args.tol),
    ]


def _verify_mollify(args) -> tuple[bool, list]:
    from .mollify import GridForm, MollifierConfig, verify_homotopy

    h = 1.0 / args.grid
    if args.n == 1:
        omega = GridForm.from_function(
            1, h, 0, {(): lambda x: np.sin(3 * x) * (1 - x**2)}
        )
    else:
        bump = lambda x, y: np.exp(-3 * (x**2 + y**2)) * (1 - x**2 - y**2)
        omega = GridForm.from_function(
            2, h, 1,
            {(0,): lambda x, y: bump(x, y) * np.sin(2 * y),
             (1,): lambda x, y: bump(x, y) * np.cos(x + y)},
        )
    rep = verify_homotopy(omega, MollifierConfig(args.eps, n=args.n), args.tol)
    return rep.passed, [
        ("n", args.n), ("h", h), ("eps", args.eps),
        ("residual", repr(rep.residual)), ("tol", args.tol),
    ]


def _verify_contract(args) -> tuple[bool, list]:
    K = _load_complex(args.complex) if args.complex else _default_split_complex()
    M = assemble(K, augmented=True)
    result = contract(M)
    if isinstance(result, ContractionFailure):
        return False, [
            ("contraction", "failed"),
            ("failure_degree", result.degree),
            ("residual", repr(result.residual)),
        ]
    rep = verify_contraction(M, result, tol=args.tol)
    return rep.passed, [("max_residual", repr(rep.max_residual)), ("tol", args.tol)]


def _verify_nontrivial(args) -> tuple[bool, list]:
    from .nontrivial import verify_nontriviality

    pi = PiSequence((args.pk, args.pk1), 1)
    M = int(float(args.trunc))
    rep = verify_nontriviality(pi, args.eps, [M])
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rep.csv())
    pairs = [
        ("kernel_residual", repr(rep.kernel.max_residual)),
        ("omega_series", rep.omega_high.verdict),
        ("domega_high_series", rep.domega_high.verdict),
        ("domega_low_series", rep.domega_low.verdict),
        ("image_gap",
         f"{rep.image.lp_high.verdict}/{rep.image.lp_low.verdict}"),
        ("growth_ratio", repr(rep.growth_ratio)),
    ]
    if args.csv:
        pairs.append(("csv", args.csv))
    return rep.passed, pairs


# Default --tol per suite: the chain identities hold to rounding, while the
# mollifier homotopy holds only up to its discretization error.
_SUITE_TOL = {"split": 1e-10, "stokes": 1e-10, "mollify": 1e-3, "contract": 1e-10}


def cmd_verify(args) -> int:
    if args.tol is None:
        args.tol = _SUITE_TOL.get(args.suite)
    runners = {
        "split": _verify_split,
        "stokes": _verify_stokes,
        "mollify": _verify_mollify,
        "contract": _verify_contract,
        "nontrivial": _verify_nontrivial,
    }
    t0 = time.time()
    ok, pairs = runners[args.suite](args)
    _emit([("suite", args.suite)] + pairs + [
        ("elapsed", f"{time.time() - t0:.3f}"),
        ("pass", ok),
    ])
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpiforms",
        description="Sobolev exterior calculus on metric simplicial complexes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="bounded-geometry check")
    p.add_argument("path")
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--N", type=int, default=6)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("subdivide", help="barycentric subdivision")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("norm", help="cochain norms")
    p.add_argument("path")
    p.add_argument("cochain")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--pi", help="comma-separated exponent sequence")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("whitney", help="Whitney form of a cochain")
    p.add_argument("path")
    p.add_argument("cochain")
    p.set_defaults(fn=cmd_whitney)

    p = sub.add_parser("derham", help="integrate the Whitney form back")
    p.add_argument("path")
    p.add_argument("cochain")
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(fn=cmd_derham)

    p = sub.add_parser("cohomology", help="cohomology dimensions")
    p.add_argument("path")
    p.add_argument("--augmented", action="store_true")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("contract", help="contracting homotopy")
    p.add_argument("path")
    p.add_argument("--augmented", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("verify", help="verification suites")
    p.add_argument("suite",
                   choices=["split", "stokes", "mollify", "contract", "nontrivial"])
    p.add_argument("--complex", help="complex file (suites with a default omit it)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float,
                   help="default 1e-3 for mollify, 1e-10 for the other suites")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--pk", type=float, default=2.0)
    p.add_argument("--pk1", type=float, default=4.0)
    p.add_argument("--trunc", default="1e6")
    p.add_argument("--csv", help="write partial-sum CSV here")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (LpiFormsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # LinAlgError is a ValueError, but a numerical failure, not a usage error
        return 1 if isinstance(exc, np.linalg.LinAlgError) else 2


if __name__ == "__main__":
    sys.exit(main())
