"""Smoke runs of the scripts in ``scripts/`` and of the README's Python
examples, each in its own interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("args,line", [
    (["regime_zoo.py"], "  X4         case 3  h=4 d1=1.17965e+06 d2=0.0333333"),
    (["andor_table.py"], "r1.O.r1          1.000000     1.000000     1.000000"),
    (["tail_curves.py", "models/delta2.bpa", "--start", "X2", "--nmax", "64",
      "--samples", "200"], "4,0.0625,1.0,0.75,"),
])
def test_script_runs(args, line):
    script, *rest = args
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *rest],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert any(out.startswith(line) for out in proc.stdout.splitlines()), proc.stdout


def test_readme_python_blocks_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    for code in blocks:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
