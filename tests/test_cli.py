import math
import re

import numpy as np
import pytest

from lpiforms import cli
from lpiforms.cli import main
from lpiforms.cochains import Cochain, write_cochain
from lpiforms.complexes import build_complex, ray_complex, read_complex, write_complex
from lpiforms.nontrivial import integral_test_brackets

from conftest import simplex_complex, sphere_complex


@pytest.fixture
def triangle_file(tmp_path):
    K = build_complex(
        {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, math.sqrt(3) / 2)}, [(0, 1, 2)]
    )
    p = tmp_path / "tri.txt"
    p.write_text(write_complex(K))
    return p, K


def test_validate_pass_and_fail(triangle_file, tmp_path, capsys):
    p, _ = triangle_file
    assert main(["validate", str(p), "--L", "1", "--N", "6"]) == 0
    out = capsys.readouterr().out
    assert "passes: True" in out
    stretched = build_complex({0: (0.0,), 1: (9.0,)}, [(0, 1)])
    q = tmp_path / "long.txt"
    q.write_text(write_complex(stretched))
    assert main(["validate", str(q), "--L", "2", "--N", "6"]) == 1


@pytest.mark.parametrize("argv", ["--L nan --N 3", "--L 2 --N 0", "--L 0.5"])
def test_validate_refuses_bounds_outside_the_range(triangle_file, capsys, argv):
    # a NaN L once failed no comparison, and every edge was outside [nan, nan]
    p, _ = triangle_file
    assert main(["validate", str(p), *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: require L >= 1 and N >= 1"]


def test_malformed_file_is_usage_error(tmp_path):
    q = tmp_path / "bad.txt"
    q.write_text("not a complex")
    assert main(["validate", str(q)]) == 2
    assert main(["validate", str(tmp_path / "missing.txt")]) == 2


def test_duplicate_cochain_line_is_usage_error(triangle_file, tmp_path, capsys):
    p, _ = triangle_file
    cf = tmp_path / "dup.txt"
    cf.write_text("degree 1\n0 1 1.0\n0 1 2.0\n")
    assert main(["norm", str(p), str(cf), "--p", "2"]) == 2
    assert "listed twice" in capsys.readouterr().err


# vertex lines of a listed triangle that has no finite, positive area
DEGENERATE = {
    "coincident": ("0 0.0 0.0\n1 0.0 0.0\n2 0.5 0.8", "zero volume"),
    "collinear": ("0 0.0 0.0\n1 1.0 0.0\n2 2.0 0.0", "zero volume"),
    "nan": ("0 0.0 0.0\n1 nan 0.0\n2 0.5 0.8", "non-finite coordinate"),
    "inf": ("0 0.0 0.0\n1 inf 0.0\n2 0.5 0.8", "non-finite coordinate"),
}


@pytest.mark.parametrize("k", ["1", "2"])
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_complex_file_is_usage_error(tmp_path, capsys, case, k):
    # once a ZeroDivisionError, a "Singular matrix" exit 1 or, with inf, a pass
    vertices, message = DEGENERATE[case]
    pf = tmp_path / "bad.txt"
    pf.write_text(f"dim 2\nvertices\n{vertices}\nsimplices\n0 1 2\n")
    assert main(["verify", "split", "--complex", str(pf), "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_cochain_value_is_usage_error(triangle_file, tmp_path, capsys, value):
    path, _ = triangle_file
    cf = tmp_path / "c.txt"
    cf.write_text(f"degree 1\n0 1 {value}\n")
    assert main(["norm", str(path), str(cf)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "non-finite value" in captured.err


@pytest.mark.parametrize(
    "suite, tol",
    [("mollify", "0.001"), ("split", "1e-10"), ("stokes", "1e-10"), ("contract", "1e-10")],
    ids=["mollify", "split", "stokes", "contract"],
)
def test_verify_mollify_passes_at_its_defaults(suite, tol, capsys):
    assert main(["verify", suite]) == 0
    out = capsys.readouterr().out
    assert f"tol: {tol}" in out and "pass: True" in out


def test_unknown_suite_exit_2():
    assert main(["verify", "nonsense"]) == 2


# the options each verify suite reads, with the --tol default it prints
SUITE_OPTIONS = {
    "split": ({"complex", "k", "samples", "seed", "tol"}, "1e-10"),
    "stokes": ({"complex", "samples", "seed", "tol"}, "1e-10"),
    "mollify": ({"n", "grid", "eps", "tol"}, "0.001"),
    "contract": ({"complex", "tol"}, "1e-10"),
    "nontrivial": ({"pk", "pk1", "eps", "trunc", "csv"}, None),
}


@pytest.mark.parametrize("suite", sorted(SUITE_OPTIONS))
def test_verify_help_lists_only_the_suite_options(suite, capsys):
    assert main(["verify", suite, "-h"]) == 0
    out = capsys.readouterr().out
    options, tol = SUITE_OPTIONS[suite]
    assert set(re.findall(r"--(\w+)", out)) - {"help"} == options
    if tol is not None:
        assert f"pass threshold (default: {tol})" in out


@pytest.mark.parametrize("argv", [
    "mollify --k 2", "nontrivial --tol 1e-30", "contract --samples 3", "stokes --k 1",
])
def test_verify_rejects_an_option_of_another_suite(argv, capsys):
    assert main(["verify", *argv.split()]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "mollify --n 3", "mollify --grid 0", "mollify --grid -4",
    "split --samples 0", "stokes --samples -3",
    "nontrivial --trunc inf", "nontrivial --trunc nan", "nontrivial --trunc 0.5",
    # a tolerance is a finite number >= 0 in every suite that reads one
    "split --tol nan", "split --tol -1", "stokes --tol inf", "stokes --tol nan",
    "mollify --tol -1e-3", "mollify --tol inf", "contract --tol nan", "contract --tol -inf",
])
def test_verify_rejects_a_bad_value(argv, capsys):
    assert main(["verify", *argv.split()]) == 2
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["5", "-1"])
def test_verify_split_degree_out_of_range_is_usage_error(k, capsys):
    assert main(["verify", "split", "--k", k]) == 2
    assert "no " + k + "-cochains" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["--grid 2", "--n 2 --grid 64 --eps 0.99"])
def test_verify_mollify_empty_region_is_usage_error(argv, capsys):
    assert main(["verify", "mollify", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert "pass: True" not in captured.out
    assert "error: no grid node" in captured.err


@pytest.mark.parametrize("argv", [
    "--n 2 --grid 100000", "--grid 10000000",
    pytest.param("--n 2 --grid 1" + "0" * 400, id="400-digit grid"),  # 1 / grid is 0.0
])
def test_verify_mollify_refuses_a_huge_grid(argv, capsys):
    # a size refusal before any grid array is allocated, not a MemoryError
    assert main(["verify", "mollify", *argv.split()]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nodes" in captured.err and "more than 8388608" in captured.err


def test_subdivide_round_trip(triangle_file, tmp_path, capsys):
    p, K = triangle_file
    out = tmp_path / "sub.txt"
    assert main(["subdivide", str(p), "-o", str(out)]) == 0
    assert "top_simplices: 6" in capsys.readouterr().out
    Kp = read_complex(out.read_text())
    # canonical write(read(file)) is byte-identical
    assert write_complex(Kp) == out.read_text()


def test_norm_command(triangle_file, tmp_path, capsys):
    p, K = triangle_file
    c = Cochain(1, {(0, 1): 1.0}, K)
    cf = tmp_path / "c.txt"
    cf.write_text(write_cochain(c))
    assert main(["norm", str(p), str(cf), "--p", "2"]) == 0
    assert "lp_norm: 1.0" in capsys.readouterr().out
    assert main(["norm", str(p), str(cf), "--pi", "2,4"]) == 0


def test_norm_at_a_large_exponent_exits_0(triangle_file, tmp_path, capsys):
    # |v|^400 of 7 overflows a float; the norm itself is about 7
    path, K = triangle_file
    cf = tmp_path / "c.txt"
    cf.write_text(write_cochain(Cochain(1, {(0, 1): 5.0, (1, 2): -7.0}, K)))
    assert main(["norm", str(path), str(cf), "--p", "400"]) == 0
    value = float(re.search(r"lp_norm: (\S+)", capsys.readouterr().out).group(1))
    assert value == pytest.approx(7.0, rel=1e-14)


@pytest.mark.parametrize("p", ["inf", "nan", "0.5"])
def test_norm_rejects_an_exponent_outside_the_range(triangle_file, tmp_path, capsys, p):
    path, K = triangle_file
    cf = tmp_path / "c.txt"
    cf.write_text(write_cochain(Cochain(1, {(0, 1): 5.0, (1, 2): -7.0}, K)))
    assert main(["norm", str(path), str(cf), "--p", p]) == 2
    assert "lp_norm" not in capsys.readouterr().out


def test_contract_of_isolated_points_is_usage_error(tmp_path, capsys):
    # no degree >= 1: nothing to contract, so no vacuous "contraction: ok"
    pf = tmp_path / "points.txt"
    pf.write_text(write_complex(build_complex({0: (0.0,), 1: (1.0,), 2: (2.0,)},
                                              [(0,), (1,), (2,)])))
    assert main(["contract", str(pf)]) == 2
    assert "contraction: ok" not in capsys.readouterr().out


def test_verify_stokes_on_isolated_points_is_usage_error(tmp_path, capsys):
    # no 1-simplex carries a form to differentiate: a library error names
    # that, instead of numpy's message from drawing a degree in [0, 0)
    pf = tmp_path / "points.txt"
    pf.write_text(write_complex(build_complex({0: (0.0,), 1: (1.0,)}, [(0,), (1,)])))
    assert main(["verify", "stokes", "--complex", str(pf)]) == 2
    err = capsys.readouterr().err
    assert "no 1-simplices" in err and "high <= 0" not in err


def test_verify_split_on_the_empty_complex_is_a_library_error(tmp_path, capsys):
    pf = tmp_path / "empty.txt"
    pf.write_text(write_complex(build_complex({}, [])))
    assert main(["verify", "split", "--complex", str(pf), "--k", "0"]) == 2
    err = capsys.readouterr().err
    assert "no 0-simplices" in err and "zero-size array" not in err


def test_whitney_and_derham_commands(triangle_file, tmp_path, capsys):
    p, K = triangle_file
    c = Cochain(1, {(0, 1): 2.0, (1, 2): -1.0}, K)
    cf = tmp_path / "c.txt"
    cf.write_text(write_cochain(c))
    assert main(["whitney", str(p), str(cf)]) == 0
    assert "pieces" in capsys.readouterr().out
    assert main(["derham", str(p), str(cf)]) == 0
    out = capsys.readouterr().out
    err = float(out.split("round_trip_error: ")[1])
    assert err <= 1e-10


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_contract_refuses_a_tolerance_outside_the_range(tmp_path, capsys, tol):
    # a NaN tolerance once printed "contraction: ok" and exited 1
    pf = tmp_path / "path.txt"
    pf.write_text(write_complex(ray_complex(1, 3)))
    assert main(["contract", str(pf), "--augmented", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --tol: must be a finite number >= 0" in captured.err


@pytest.mark.parametrize("argv", ["--pk1 inf", "--pk nan", "--pk 1"])
def test_verify_nontrivial_refuses_an_invalid_exponent(argv, capsys):
    # an infinite p_1 once ran with decay 0, and a NaN p_0 was blamed on eps
    assert main(["verify", "nontrivial", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: PiSequence") and "eps" not in captured.err


def test_cohomology_and_contract_commands(tmp_path, capsys):
    import itertools

    verts = {i: tuple(1.0 if j == i else 0.0 for j in range(3)) for i in range(4)}
    sphere = build_complex(verts, list(itertools.combinations(range(4), 3)))
    sf = tmp_path / "s.txt"
    sf.write_text(write_complex(sphere))
    assert main(["cohomology", str(sf)]) == 0
    assert "cohomology_dims: 1 0 1" in capsys.readouterr().out
    assert main(["contract", str(sf)]) == 1
    assert "failure_degree: 2" in capsys.readouterr().out


@pytest.mark.parametrize("path", [False, True], ids=["default", "999-edge path"])
def test_contract_commands_report_an_exact_residual(tmp_path, capsys, path):
    pf = tmp_path / "path.txt"
    pf.write_text(write_complex(ray_complex(1, 999)))
    suffix = ["--complex", str(pf)] if path else []
    assert main(["verify", "contract", *suffix]) == 0
    assert "max_residual: 0.0\n" in capsys.readouterr().out
    if path:
        assert main(["contract", str(pf), "--augmented"]) == 0
        assert capsys.readouterr().out == "contraction: ok\nmax_residual: 0.0\n"


@pytest.mark.parametrize("argv, code, keys", [
    (["contract", "simplex", "--augmented"], 0, ["contraction", "max_residual"]),
    (["contract", "sphere"], 1, ["contraction", "failure_degree", "residual"]),
    (["verify", "contract"], 0,
     ["suite", "contraction", "max_residual", "tol", "elapsed", "pass"]),
    (["verify", "contract", "--complex", "sphere"], 1,
     ["suite", "contraction", "failure_degree", "residual", "tol", "elapsed", "pass"]),
], ids=["contract ok", "contract failed", "verify ok", "verify failed"])
def test_contraction_report_keys(tmp_path, capsys, argv, code, keys):
    # both commands print one runner's lines; `verify contract` adds its frame and tol
    files = {"simplex": simplex_complex(2), "sphere": sphere_complex(2)}
    for name, K in files.items():
        (tmp_path / name).write_text(write_complex(K))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == code
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(": ")[0] for ln in lines] == keys
    assert lines[keys.index("contraction")] == ("contraction: ok" if code == 0
                                               else "contraction: failed")


def test_numerical_failure_is_exit_1(monkeypatch, capsys):
    def singular(M):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "contract", singular)
    assert main(["verify", "contract"]) == 1
    assert "SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["cohomology"], ["contract"], ["verify", "contract", "--complex"]])
def test_size_refusal_is_exit_1(tmp_path, capsys, argv):
    # a well-formed complex beyond the dense limit is a capacity failure, not a usage error
    big = tmp_path / "big.txt"
    big.write_text(write_complex(ray_complex(1, 1500)))  # 3,001 simplices
    assert main([*argv, str(big)]) == 1
    assert "dense limit is 2000" in capsys.readouterr().err


def test_verify_seed_determinism(capsys):
    assert main(["verify", "split", "--samples", "10", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "split", "--samples", "10", "--seed", "42"]) == 0
    second = capsys.readouterr().out
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("elapsed")]
    assert strip(first) == strip(second)


def test_verify_nontrivial_csv(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    code = main([
        "verify", "nontrivial", "--pk", "2", "--pk1", "4",
        "--eps", "1", "--trunc", "1e4", "--csv", str(csv),
    ])
    assert code == 0
    assert csv.read_text().startswith("m,S_pk,S_pk1,tail_bound")


@pytest.mark.parametrize("trunc", ["1e15", "999999999999999"])
def test_verify_nontrivial_at_a_large_truncation(trunc, tmp_path, capsys):
    # the partial sums are in closed form, so 10^15 terms cost no memory; the
    # last row is the truncation itself, never the next power of ten
    csv = tmp_path / "big.csv"
    assert main(["verify", "nontrivial", "--trunc", trunc, "--csv", str(csv)]) == 0
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert int(rows[-1][0]) == int(float(trunc))
    assert [int(r[0]) for r in rows[:-1]] == [10**j for j in range(1, 15)]
    pk, pk1, eps = (cli._OPTIONS[o]["default"] for o in ("pk", "pk1", "eps"))
    decay = 1.0 / (pk1 - eps)
    for row in rows:
        m = int(row[0])
        for p, s in ((pk, float(row[1])), (pk1, float(row[2]))):
            lo, hi = integral_test_brackets(p * decay, m)
            assert lo <= s <= hi, (m, p)


def test_verify_nontrivial_reads_an_integer_truncation_exactly(tmp_path, capsys):
    # through a float, 9007199254740993 = 2**53 + 1 became 2**53
    csv = tmp_path / "exact.csv"
    assert main(["verify", "nontrivial", "--trunc", "9007199254740993", "--csv", str(csv)]) == 0
    assert csv.read_text().splitlines()[-1].startswith("9007199254740993,")


@pytest.mark.parametrize("text, value", [("1e6", 10**6), ("2.5e3", 2500), ("1000", 1000),
                                         ("1e20", 10**20), ("12.0", 12)])
def test_verify_nontrivial_reads_a_whole_truncation_in_any_notation(text, value):
    got = cli._OPTIONS["trunc"]["type"](text)
    assert got == value and type(got) is int


@pytest.mark.parametrize("trunc", ["2.5", "1000.0001", "9007199254740993.5"])
def test_verify_nontrivial_refuses_a_truncation_that_is_not_whole(trunc, capsys):
    # 2.5 once ran as 2; the last one is whole once rounded to a float
    assert main(["verify", "nontrivial", "--trunc", trunc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"lpiforms verify nontrivial: error: argument --trunc: must be a whole number, got {trunc!r}"]


def test_verify_nontrivial_kernel_residual_is_exactly_zero(capsys):
    # every bump vanishes at the host vertices, and the edge integrals are
    # differences of those values, so the residual carries no rounding
    assert main(["verify", "nontrivial", "--trunc", "1e4"]) == 0
    assert "kernel_residual: 0.0\n" in capsys.readouterr().out
