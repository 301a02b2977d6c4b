"""Every exported name resolves: no __all__ keeps a name its module lost."""

import importlib
import pkgutil

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
