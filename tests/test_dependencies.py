"""NumPy is the package's only runtime dependency."""

import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IMPORT_ALL = """
import importlib, pkgutil, sys
import svdsurgery, svdsurgery.cli
for m in pkgutil.iter_modules(svdsurgery.__path__):
    importlib.import_module("svdsurgery." + m.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_importing_the_package_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL],
        cwd=ROOT / "src", capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
