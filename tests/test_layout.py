"""Package layout: no module reaches into another module's private names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minmaxtsp"


def _private_relative_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''}"
            f" import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [hit for path in modules for hit in _private_relative_imports(path)]
    assert found == []
