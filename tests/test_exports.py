"""Every name a qmie module exports resolves.

The layer tracer of ``perfbench`` looks up each name in the ``__all__`` of
the layer modules, so a name left there after its definition is gone
breaks a traced run.
"""

import importlib

import pytest

MODULES = ("qmie", "qmie.specfun", "qmie.miecore", "qmie.modes", "qmie.observables",
           "qmie.bogoliubov")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
