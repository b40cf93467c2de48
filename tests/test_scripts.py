"""Smoke runs of the scripts in ``scripts/`` and of the README's Python
examples, each in its own interpreter, and a check that the names the
README cites in the library exist."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ppda

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


def test_readme_names_resolve():
    """Every backticked ``module.NAME`` or ``Class.attr`` in the README whose
    first part is a ``ppda`` module or class names a real attribute or, on a
    dataclass, a field."""
    owners = {}
    for info in pkgutil.iter_modules(ppda.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = owners[info.name] = importlib.import_module(f"ppda.{info.name}")
        owners.update((name, cls) for name, cls in inspect.getmembers(module, inspect.isclass)
                      if cls.__module__ == module.__name__)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    cited = {(owner, attr) for owner, attr in re.findall(r"`(\w+)\.(\w+)", readme)
             if owner in owners}
    assert cited
    missing = [f"{o}.{a}" for o, a in sorted(cited) if not hasattr(owners[o], a)
               and a not in getattr(owners[o], "__dataclass_fields__", ())]
    assert missing == []
