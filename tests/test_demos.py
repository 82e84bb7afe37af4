"""Every script under ``demos/`` and the README's examples run to completion.

Each demo is copied into a temporary directory and run there in a fresh
interpreter, so the files the demos write next to themselves or into their
working directory (an instance file, SVG drawings, report CSVs) stay out of
the source tree.  The README's Python quickstart runs the same way, and its
JSON instance file must load.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from minmaxtsp import Point, instance_from_json

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_fresh(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Warnings fail here as they fail the suite (pyproject's filterwarnings).
    return subprocess.run([sys.executable, "-W", "error", str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def _readme_blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    done = _run_fresh(shutil.copy(demo, tmp_path), tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr


def test_readme_quickstart_runs(tmp_path):
    [code] = _readme_blocks("python")
    script = tmp_path / "quickstart.py"
    script.write_text(code, encoding="utf-8")
    done = _run_fresh(script, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert len(done.stdout.splitlines()) == 2, done.stdout


def test_readme_instance_file_loads():
    [doc] = _readme_blocks("json")
    inst = instance_from_json(doc)
    assert inst.n_targets == 3 and inst.k == 2
    assert inst.vehicle(2).depot == Point(25.0, 0.0)
    assert inst.required == {1: frozenset({2})}
