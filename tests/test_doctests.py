"""Every docstring example in the package runs as written."""

import doctest
import importlib
import pkgutil

import pytest

import qaltsum

MODULES = sorted(m.name for m in pkgutil.iter_modules(qaltsum.__path__, "qaltsum."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_the_examples_are_found():
    finder = doctest.DocTestFinder()
    found = [
        test
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
        if test.examples
    ]
    assert len(found) >= 16
