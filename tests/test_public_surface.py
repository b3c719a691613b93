"""Every name a public module exports in ``__all__`` exists.

A name deleted from a module but left in its ``__all__`` breaks only
``from module import *`` and the docs, so nothing else would catch it.
"""

from __future__ import annotations

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.estimator",
    "repro.core.mpcgs",
    "repro.likelihood",
    "repro.likelihood.growth_prior",
    "repro.baselines",
    "repro.proposals",
    "repro.proposals.kinetics",
    "repro.proposals.neighborhood",
]

#: Subpackages deleted from ``repro``: importing one must fail, so no
#: leftover import path or alias can bring it back.
REMOVED_SUBPACKAGES = ("device",)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    for name in REMOVED_SUBPACKAGES:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.{name}")
