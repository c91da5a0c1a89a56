"""The package's top-level names load lazily, each from its home module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mortforecast

SRC = Path(mortforecast.__file__).resolve().parents[1]


def test_import_loads_neither_numpy_nor_scipy():
    # so the command-line entries can set BLAS's thread count before
    # numpy loads BLAS
    code = ("import sys, mortforecast; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", [n for n in mortforecast.__all__ if n != "__version__"])
def test_each_name_is_its_home_modules_object(name):
    value = getattr(mortforecast, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("mortforecast.")
    assert getattr(home, name) is value


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from mortforecast import *", namespace)
    for name in mortforecast.__all__:
        assert namespace[name] is getattr(mortforecast, name)
        assert name in dir(mortforecast)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'fit_lcs'"):
        mortforecast.fit_lcs  # noqa: B018 - defined in leecarter, not re-exported
    assert not hasattr(mortforecast, "no_such_name")
