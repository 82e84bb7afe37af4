"""Package layout: no module reaches into another module's private names,
every public export resolves and the README lists exactly those, the package
runs on numpy alone (scipy serves only the tests), loads XML only to draw
and csv only to write a report, every distance comes from the one kernel,
every file is opened by the one pair of path helpers, ``model`` imports no
other module of the package, the instance reader uses none of ``model``'s
value rules, and every name the benchmark's layer tracer wraps still
exists."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import minmaxtsp

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minmaxtsp"


def _private_relative_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno} from {'.' * node.level}{node.module or ''}"
            f" import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def _imported_top_modules(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return [(line, name.split(".")[0]) for line, name in found]


def _uses(path: Path, name: str) -> list:
    """(file, owner, enclosing function) of every ``<owner>.<name>`` reference,
    every import of ``name`` (owner: the module) and every bare ``name``
    (owner: None)."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else func
            if isinstance(child, ast.Attribute) and child.attr == name:
                found.append((path.name, ast.unparse(child.value), inner))
            elif isinstance(child, ast.ImportFrom) and any(
                    alias.name == name for alias in child.names):
                found.append((path.name, child.module, inner))
            elif isinstance(child, ast.Name) and child.id == name:
                found.append((path.name, None, inner))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [hit for path in modules for hit in _private_relative_imports(path)]
    assert found == []


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [f"{path.name}:{line}" for path in modules
             for line, top in _imported_top_modules(path) if top == "scipy"]
    assert found == []


def _loaded_by_importing_the_package_and_cli(top: str) -> str:
    """The modules under package ``top`` that a fresh interpreter holds after
    ``import minmaxtsp, minmaxtsp.cli``, as the printed sorted list."""
    code = ("import sys; sys.path.insert(0, {src!r}); import minmaxtsp, minmaxtsp.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))"
            ).format(src=str(PACKAGE.parent), top=top)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout.strip() + done.stderr


def test_importing_the_package_and_cli_loads_no_scipy():
    assert _loaded_by_importing_the_package_and_cli("scipy") == "[]"


def test_importing_the_package_and_cli_loads_no_xml():
    """Only drawing uses ``xml.etree``, so ``svgplot`` imports it on first use."""
    assert _loaded_by_importing_the_package_and_cli("xml") == "[]"


def test_importing_the_package_and_cli_loads_no_csv():
    """Only writing a report uses ``csv``, so ``bench`` imports it on first use."""
    assert _loaded_by_importing_the_package_and_cli("csv") == "[]"


def test_every_export_resolves_once():
    names = minmaxtsp.__all__
    assert [n for n, count in Counter(names).items() if count > 1] == []
    assert [n for n in names if not hasattr(minmaxtsp, n)] == []
    namespace = {}
    exec("from minmaxtsp import *", namespace)
    assert set(names) <= set(namespace)


def test_the_readme_lists_exactly_the_exports():
    text = (PACKAGE.parent.parent / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listing = next(block for block in section.split("\n\n") if block.startswith("- "))
    listed = re.findall(r"`(\w+)`", listing)
    assert Counter(listed) == Counter(minmaxtsp.__all__)


def test_every_distance_comes_from_the_one_kernel():
    """No ``math.hypot`` anywhere, and ``np.hypot`` only in ``model.distances``,
    so equal coordinates give equal distance bits in every stage."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    kernel = ("model.py", "np", "distances")
    uses = [use for path in modules for use in _uses(path, "hypot")]
    assert kernel in uses
    assert [use for use in uses if use != kernel] == []


def test_only_the_tour_solver_and_the_oracle_name_the_held_karp_cap():
    """``tsp.held_karp_routes`` alone decides which tour requests Held-Karp
    routes; the oracle holds its subsets to the cap on its own.  In ``tsp``
    the cap is otherwise named only where it is defined: no cache is sized
    by it."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    uses = [use for path in modules for use in _uses(path, "EXACT_CAP")]
    assert {file for file, _, _ in uses} == {"tsp.py", "oracle.py"}
    assert {use for use in uses if use[0] == "tsp.py"} == {
        ("tsp.py", None, None), ("tsp.py", None, "held_karp_routes")}


def test_every_file_is_opened_by_the_path_helper():
    """The builtin ``open`` only in ``model.read_text`` and ``model.write_text``,
    so every path the package reads or writes passes ``check_path`` first and
    every file is written from a text built whole."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    helpers = [("model.py", None, "read_text"), ("model.py", None, "write_text")]
    uses = [use for path in modules for use in _uses(path, "open")]
    assert sorted(uses) == helpers


def test_the_model_imports_no_other_module_of_the_package():
    """``model`` is the base every other module builds on, so it imports none
    of them, not even lazily inside a function."""
    tree = ast.parse((PACKAGE / "model.py").read_text(), filename="model.py")
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    found += [line for line, top in _imported_top_modules(PACKAGE / "model.py")
              if top == "minmaxtsp"]
    assert found == []


def test_the_instance_reader_checks_shape_and_leaves_values_to_the_instance():
    """``io`` checks that a document has the layout's objects and arrays;
    every coordinate, speed and target index is judged by ``Instance`` alone,
    so no value rule has a second owner in the reader."""
    rules = ("is_integer", "is_real", "is_point", "is_speed", "plain")
    assert [use for name in rules for use in _uses(PACKAGE / "io.py", name)] == []


def test_every_name_the_layer_tracer_wraps_exists(monkeypatch):
    """``perfbench/layertrace.py`` swaps each ``(owner, attr)`` of its
    ``TARGETS`` for a wrapper and refuses to start when one is gone, so a
    rename here would otherwise fail only when the benchmark runs.  The
    tracer is imported, never entered."""
    monkeypatch.syspath_prepend(str(PACKAGE.parent.parent / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in layertrace.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_one_rule_makes_numpy_scalars_plain():
    """``np.generic`` and ``.item()`` only in ``model.plain``, so every numpy
    scalar the package keeps or compares is read as a Python number one way."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    uses = [use for path in modules for name in ("generic", "item")
            for use in _uses(path, name) if use[1] is not None]
    assert sorted(uses) == [("model.py", "np", "plain"), ("model.py", "value", "plain")]
