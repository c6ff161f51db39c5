"""Module layout rules that keep each camera-model convention in one owner."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "procamsim"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def test_only_station_detections_imports_at_call_time():
    """The two call-time imports let wrappers installed after import see each sweep capture."""
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(_tree(path.stem)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Import):
                        nested |= {(path.stem, func.name, a.name) for a in node.names}
                    elif isinstance(node, ast.ImportFrom):
                        nested.add((path.stem, func.name, node.module))
    assert nested == {("calibration", "_station_detections", "imaging"),
                      ("calibration", "_station_detections", "vision")}


def test_vision_does_not_import_calibration():
    names = set()
    for node in ast.walk(_tree("vision")):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert not any("calibration" in name.split(".") for name in names)
