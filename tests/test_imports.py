"""Module layout rules that keep each camera-model convention in one owner."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "procamsim"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_no_function_imports_at_call_time():
    """Calls go through module attributes instead, which wrappers installed after import see."""
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(_tree(path.stem)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Import):
                        nested |= {(path.stem, func.name, a.name) for a in node.names}
                    elif isinstance(node, ast.ImportFrom):
                        nested.add((path.stem, func.name, node.module))
    assert nested == set()


def test_vision_does_not_import_the_target_types():
    """Which marker sits on which face is scene's to know, read through the faces."""
    names = set()
    for node in ast.walk(_tree("vision")):
        if isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    assert not names & {"FiducialBoard", "PrismTarget"}


def test_vision_does_not_import_calibration():
    names = set()
    for node in ast.walk(_tree("vision")):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert not any("calibration" in name.split(".") for name in names)


def test_every_error_class_is_raised_in_the_package():
    """A class nothing raises only widens the except clauses that name it."""
    classes = {node.name for node in _tree("errors").body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path.stem)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert classes - raised == {"ProcamError"}


def _names(path: Path) -> set[str]:
    """Every identifier ``path`` uses: names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_function_and_class_has_a_caller_outside_the_unit_tests():
    """A command, a run or the benchmark must name each one; code that only unit
    tests reach is deleted instead of kept for them."""
    repo = SRC.parents[1]
    callers = [*SRC.glob("*.py"), *(repo / "perfbench").glob("*.py"),
               repo / "tests" / "test_acceptance.py"]
    named = set().union(*map(_names, callers))
    unnamed = {
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in _tree(path.stem).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in named
    }
    assert unnamed == set()
