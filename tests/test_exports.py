"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import bbmlab

MODULES = ["bbmlab"] + [f"bbmlab.{info.name}"
                        for info in pkgutil.iter_modules(bbmlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__",
                       [n for n in vars(module) if not n.startswith("_")])
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
