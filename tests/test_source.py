import ast
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
