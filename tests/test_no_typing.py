"""No module of the package loads `typing`.

Each module is imported in a fresh `python -I -S`, so neither the
environment nor `site` can load `typing` first.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ologs

SRC = Path(ologs.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(ologs.__path__)))
def test_module_loads_no_typing(name):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import ologs.{name}; print('typing' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True,
        text=True, encoding="utf-8", timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
