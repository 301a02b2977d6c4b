"""Every exported name resolves: no __all__ keeps a name its module lost."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import qaltsum

MODULES = ["qaltsum"] + sorted(m.name for m in pkgutil.iter_modules(qaltsum.__path__, "qaltsum."))
PUBLIC = ["qaltsum"] + [
    f"qaltsum.{m}" for m in ("cli", "cyclo", "polycore", "qcomb", "sums", "verify")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_public_modules_declare_all():
    assert all(importlib.import_module(name).__all__ for name in PUBLIC)


def test_imports_only_the_standard_library():
    # third-party packages may be installed where the tests run, so an
    # in-process import would not notice the package needing one
    code = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import qaltsum\n"
        "for m in pkgutil.iter_modules(qaltsum.__path__, 'qaltsum.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(qaltsum.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert "qaltsum.polycore" in out
    tops = {name.partition(".")[0] for name in out}
    # __mp_main__ is multiprocessing's alias of the __main__ module
    assert sorted(tops - set(sys.stdlib_module_names) - {"qaltsum", "__mp_main__"}) == []
