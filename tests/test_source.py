import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_every_private_helper_is_read():
    # a helper whose job moved elsewhere must go with it: every private
    # function, class or method defined in the library is read somewhere in
    # it, as a name, an attribute or an import; through ast, so that a
    # docstring or comment that names a helper does not count as a read
    nodes = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))]
    defined = {node.name for node in nodes
               if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
               and node.name.startswith("_") and not (node.name[:2] == node.name[-2:] == "__")}
    read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    read |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert defined
    assert not sorted(defined - read), sorted(defined - read)


def test_import_pulls_in_no_scipy():
    # numpy is the one numerical runtime dependency; a fresh interpreter
    # also catches scipy imported through another module
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import lpiforms; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out


def test_traced_names_exist():
    # the benchmark's tracer wraps these names by lookup (a method through
    # the class __dict__), so a rename breaks `--trace 1` with a KeyError;
    # perfbench/tracing.py is parsed, not imported
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    tables = {}
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.AnnAssign | ast.Assign) and isinstance(node.value, ast.Dict):
            target = node.target if isinstance(node, ast.AnnAssign) else node.targets[0]
            tables[target.id] = node.value
    refs = {ref for group in ast.literal_eval(tables["GROUPS"]).values() for ref in group}
    refs |= {ast.literal_eval(key) for key in tables["COUNTERS"].keys}
    assert refs
    missing = []
    for module, name in sorted(refs):
        mod = importlib.import_module(f"lpiforms.{module}")
        owner, _, attr = name.rpartition(".")
        found = attr in vars(getattr(mod, owner)) if owner else hasattr(mod, attr)
        if not found:
            missing.append(f"{module}.{name}")
    assert not missing, missing


def test_public_names_are_pinned():
    # an addition to or a removal from the package's exports shows in this list
    import lpiforms

    assert sorted(lpiforms.__all__) == [
        "BumpFamily", "Cochain", "Contraction", "ContractionFailure", "GridForm",
        "LpiFormsError", "MatrixComplex", "MetricComplex", "MollifierConfig", "PiSequence",
        "PolyForm", "SeriesVerdict", "assemble", "ball_diffeo", "barycentric_subdivide",
        "build_complex", "build_family", "bump_profile", "coboundary", "cohomology_dims",
        "cone_S", "contract", "derham_kernel_check", "derham_map", "family_norm_series",
        "grid_d", "homotopy_A", "indicator", "lp_norm", "pi_norm", "prism_extend",
        "ray_complex", "read_complex", "regularize", "skeleton", "star",
        "subdivision_image", "validate_bounded_geometry", "verify_contraction",
        "verify_homotopy", "verify_nontriviality", "verify_split", "verify_stokes",
        "verify_support_control", "whitney", "write_complex",
    ]


def test_benchmark_workloads_pass_at_quick_size(tmp_path):
    # the workloads read attributes that the tracer's name tables do not
    # list (BumpFamily.subdivided, ImageReport.cochain, ...), so each one runs
    # here once at its smallest size; perfbench/workloads.py is loaded by path
    path = SRC.parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for name, (setup, run) in workloads.WORKLOADS.items():
        inp = setup(np.random.default_rng(0), True)
        if "csv" in inp:
            inp["csv"] = str(tmp_path / f"{name}.csv")
        checks = workloads.Checks()
        run(inp, checks)
        assert checks.attempted > 0, name
        assert not checks.failures, (name, checks.failures)
