"""Command-line driver: construction, norms, and verification suites.

`verify` has one subcommand per suite, and each declares only the options
its check reads, with that suite's defaults (`lpiforms verify <suite> -h`
lists them), so an option of another suite is a usage error.

Exit codes: 0 = all asserted tolerances met, 1 = an assertion failed, a
numerical step raised LinAlgError or a complex exceeded the dense size limit,
2 = usage or parse error.  Reports are key:value lines; the counterexample
suite can also emit a CSV of partial sums.
"""

from __future__ import annotations

import argparse
import decimal
import math
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
from .derham import _stokes_error, derham_map, verify_split, whitney
from .errors import LpiFormsError, TooLarge
from .mollify import _MAX_NODES, GridForm, MollifierConfig, verify_homotopy
from .nontrivial import verify_nontriviality


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


def _run_contraction(K: complexes.MetricComplex, augmented: bool, tol: float) -> tuple[bool, list]:
    """Assemble, contract and verify: the failure lines, or `contraction: ok` and the residual."""
    M = assemble(K, augmented=augmented)
    result = contract(M)
    if isinstance(result, ContractionFailure):
        return False, [("contraction", "failed"), ("failure_degree", result.degree),
                       ("residual", repr(result.residual))]
    rep = verify_contraction(M, result, tol=tol)
    return rep.passed, [("contraction", "ok"), ("max_residual", repr(rep.max_residual))]


def cmd_contract(args) -> int:
    ok, pairs = _run_contraction(_load_complex(args.path), args.augmented, args.tol)
    _emit(pairs)
    return 0 if ok else 1


def _default_split_complex():
    tri = complexes.build_complex(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, 3**0.5 / 2)}, [(0, 1, 2)]
    )
    return complexes.barycentric_subdivide(tri)


def _verify_split(args) -> tuple[bool, list]:
    K = _load_complex(args.complex) if args.complex else _default_split_complex()
    rep = verify_split(K, args.k, args.samples, seed=args.seed)
    ok = rep.max_identity_error <= args.tol
    return ok, [
        ("samples", rep.sample_count),
        ("max_identity_error", repr(rep.max_identity_error)),
        ("tol", args.tol),
    ]


def _verify_stokes(args) -> tuple[bool, list]:
    K = _load_complex(args.complex) if args.complex else _default_split_complex()
    worst = _stokes_error(K, args.samples, args.seed)
    return worst <= args.tol, [
        ("samples", args.samples),
        ("max_stokes_error", repr(worst)),
        ("tol", args.tol),
    ]


def _verify_mollify(args) -> tuple[bool, list]:
    if (2 * args.grid + 1) ** args.n > _MAX_NODES:  # in integers: 1 / grid may round to 0.0
        raise TooLarge(f"a {args.n}-D grid of h = 1/{args.grid} has more than {_MAX_NODES} nodes")
    h = 1 / args.grid
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
    ok, pairs = _run_contraction(K, True, args.tol)
    return ok, pairs + [("tol", args.tol)]


def _verify_nontrivial(args) -> tuple[bool, list]:
    pi = PiSequence((args.pk, args.pk1), 1)
    rep = verify_nontriviality(pi, args.eps, [args.trunc])
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


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    ok, pairs = args.run(args)
    _emit([("suite", args.suite)] + pairs + [
        ("elapsed", f"{time.perf_counter() - t0:.3f}"),
        ("pass", ok),
    ])
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _finite(low: float, cast=float):
    """The option type of a finite number >= low, such as 1e6; whole and exact for cast=int."""
    def number(text: str):
        value = float(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        if cast is int and (value := decimal.Decimal(text)) != value.to_integral_value():
            raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}")
        return cast(value)
    return number


# The options of the verify suites; each suite declares only those it reads.
_OPTIONS = {
    "complex": dict(help="complex file; without it, a subdivided triangle"),
    "k": dict(type=int, default=1, help="cochain degree"),
    "samples": dict(type=_positive_int, default=100, help="random trials"),
    "seed": dict(type=int, default=0, help="random seed"),
    "n": dict(type=int, choices=(1, 2), default=1, help="ball dimension"),
    "grid": dict(type=_positive_int, default=256, help="h = 1/grid"),
    "eps": dict(type=float, default=0.1, help="epsilon"),
    "pk": dict(type=float, default=2.0, help="exponent p_0"),
    "pk1": dict(type=float, default=4.0, help="exponent p_1"),
    "trunc": dict(type=_finite(1, int), default="1e6", help="series truncation"),
    "csv": dict(help="write partial-sum CSV here"),
}

# suite -> (runner, help, options, default --tol or None for no --tol).  The
# chain identities hold to rounding, while the mollifier homotopy holds only
# up to its discretization error.
_SUITES = {
    "split": (_verify_split, "Whitney/de Rham retraction", "complex k samples seed", 1e-10),
    "stokes": (_verify_stokes, "Stokes' theorem", "complex samples seed", 1e-10),
    "mollify": (_verify_mollify, "mollifier homotopy on the ball", "n grid eps", 1e-3),
    "contract": (_verify_contract, "contracting homotopy", "complex", 1e-10),
    "nontrivial": (_verify_nontrivial, "bump-family counterexample", "pk pk1 eps trunc csv", None),
}


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
    p.add_argument("--tol", type=_finite(0), default=1e-8)
    p.set_defaults(fn=cmd_contract)

    p = sub.add_parser("verify", help="verification suites")
    suites = p.add_subparsers(dest="suite", required=True)
    for name, (run, text, options, tol) in _SUITES.items():
        q = suites.add_parser(name, help=text,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        q.set_defaults(fn=cmd_verify, run=run)
        for opt in options.split():
            q.add_argument("--" + opt, **_OPTIONS[opt])
        if tol is not None:
            q.add_argument("--tol", type=_finite(0), default=tol, help="pass threshold")
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
        # a numerical failure or a size refusal is a ValueError, but not a usage error
        return 1 if isinstance(exc, (np.linalg.LinAlgError, TooLarge)) else 2


if __name__ == "__main__":
    sys.exit(main())
