"""Checks over the package source itself."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "abduce"


def test_no_assert_statements():
    """``python -O`` strips ``assert``, so no check in the package may use it."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/abduce: {found}"


def test_no_scipy_imports():
    """scipy is a test dependency only; the package runs on numpy alone."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"scipy imports in src/abduce: {found}"


def test_tracer_targets_exist():
    """The benchmark tracer (``perfbench/spans.py``) wraps package functions
    by name, so a renamed one fails here as well as in the traced runs; every
    wrapped attribute is back to the original afterwards."""
    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import abduce.cli  # noqa: F401  (install also wraps its encoder names)
    rec = spans.Recorder()
    try:
        spans.install(rec)
        patched = list(rec._patched)
    finally:
        rec.unpatch()
    assert patched
    for module, attr, fn in patched:
        assert getattr(module, attr) is fn
