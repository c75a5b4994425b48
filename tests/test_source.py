import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lpiforms"


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O, so a check the library relies on
    # must raise instead
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_import_pulls_in_no_scipy():
    # numpy is the one numerical runtime dependency; a fresh interpreter
    # also catches scipy imported through another module
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import lpiforms; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out
