"""Every docstring example in the package runs and gives what it shows."""

import doctest
import importlib
import pkgutil

import pytest

import latcompress

MODULES = ["latcompress"] + sorted(
    info.name
    for info in pkgutil.iter_modules(latcompress.__path__, "latcompress.")
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name: str) -> None:
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
