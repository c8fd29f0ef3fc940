"""Each module of the package imports on its own, and loads only what it uses.

The package root defines only `__version__`, so `import ologs` loads
none of its modules, and every name is imported from the module that
defines it.  The category and its labels, the records, the reports and
the errors load neither the csv module nor the data, mapping, DSL or
CLI layers.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ologs

SRC = Path(ologs.__file__).resolve().parent.parent
LAYERS_WITHOUT_DATA = ["category", "language", "olog", "records", "report",
                       "errors"]
DATA_AND_ABOVE = {"csv", "ologs.instance", "ologs.mapping", "ologs.dsl",
                  "ologs.cli"}


def loaded_by(module):
    """The `ologs` modules and csv that a fresh interpreter has loaded
    after `import module`."""
    code = (f"import json, sys, {module}; print(json.dumps(sorted("
            f"m for m in sys.modules if m == 'csv' or m == 'ologs' "
            f"or m.startswith('ologs.'))))")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        encoding="utf-8", env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(ologs.__path__)))
def test_each_module_imports_on_its_own(name):
    assert f"ologs.{name}" in loaded_by(f"ologs.{name}")


def test_the_package_root_loads_no_module():
    assert loaded_by("ologs") == ["ologs"]


@pytest.mark.parametrize("name", LAYERS_WITHOUT_DATA)
def test_layers_below_the_data_load_no_csv_and_no_data_layer(name):
    assert not DATA_AND_ABOVE.intersection(loaded_by(f"ologs.{name}"))
