"""Every name a qmie module exports, and every name README.md cites, resolves.

The layer tracer of ``perfbench`` looks up each name in the ``__all__`` of
the layer modules, so a name left there after its definition is gone
breaks a traced run.
"""

import importlib
import re
from pathlib import Path

import pytest

MODULES = ("qmie", "qmie.specfun", "qmie.miecore", "qmie.modes", "qmie.observables",
           "qmie.bogoliubov")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


README = Path(__file__).resolve().parent.parent / "README.md"
# a module name and its attribute path, not preceded by a name or a dot
_QUALIFIED = re.compile(r"(?<![\w./])(qmie|specfun|miecore|modes|observables|bogoliubov|cli)"
                        r"((?:\.[A-Za-z_]\w*)+)")


def readme_names():
    """Every module-qualified name in a backticked span of README.md, as
    (module, attribute path); file names such as cli.py are not names."""
    names = []
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        for module, path in _QUALIFIED.findall(span):
            if path != ".py":
                names.append((module, path[1:]))
    return names


def test_readme_names_resolve():
    # a name deleted from the code must not linger in the README
    for name in MODULES[1:] + ("qmie.cli",):
        importlib.import_module(name)
    names = readme_names()
    assert len(names) >= 20
    unresolved = []
    for module, path in names:
        obj = importlib.import_module("qmie" if module == "qmie" else f"qmie.{module}")
        try:
            for part in path.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            unresolved.append(f"{module}.{path}")
    assert not unresolved
