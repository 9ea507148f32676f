"""Run the docstring examples of every module that has any as tests.

The modules are discovered, not listed: every module under ``repro``
whose source holds a ``>>>`` prompt is collected, so a new example
cannot be silently left out of the suite.
"""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import pkgutil

import pytest

import repro


def _modules_with_examples() -> list[str]:
    found = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        origin = importlib.util.find_spec(info.name).origin
        with open(origin, encoding="utf-8") as handle:
            if ">>>" in handle.read():
                found.append(info.name)
    return sorted(found)


MODULES = _modules_with_examples()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    if module_name == "repro.accel.vector":  # the optional numpy kernel
        pytest.importorskip("numpy")
    module = importlib.import_module(module_name)
    results = doctest.testmod(
        module,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"


def test_discovery_finds_the_known_modules():
    # A discovery that silently found nothing would pass every case above.
    for name in ("repro.api.registry", "repro.distances.setwise", "repro.accel.vector"):
        assert name in MODULES
