import math

import numpy as np
import pytest

from lpiforms import cli
from lpiforms.cli import main
from lpiforms.cochains import Cochain, write_cochain
from lpiforms.complexes import build_complex, read_complex, write_complex


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


def test_verify_mollify_passes_at_its_defaults(capsys):
    assert main(["verify", "mollify"]) == 0
    out = capsys.readouterr().out
    assert "tol: 0.001" in out and "pass: True" in out


def test_unknown_suite_exit_2():
    assert main(["verify", "nonsense"]) == 2


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


def test_numerical_failure_is_exit_1(monkeypatch, capsys):
    def singular(M):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "contract", singular)
    assert main(["verify", "contract"]) == 1
    assert "SVD did not converge" in capsys.readouterr().err


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
