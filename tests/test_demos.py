import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_two_lines_ending_in_the_caid():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    proc = run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    assert all(line.endswith(" CA123643") for line in lines), proc.stdout


def test_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Layout\n\n```\nsrc/varlex/\n(.*?)```", readme, re.DOTALL)
    named = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    # The package's __init__.py holds only its exports.
    modules = {p.name for p in (ROOT / "src" / "varlex").glob("*.py")}
    assert sorted(named) == sorted(modules - {"__init__.py"})
