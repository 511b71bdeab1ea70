import importlib
import pkgutil

import pytest

import vlasov_transport

MODULES = sorted(info.name
                 for info in pkgutil.iter_modules(vlasov_transport.__path__)
                 if info.name != "__main__")


def test_package_exports_resolve_once():
    names = vlasov_transport.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(vlasov_transport, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    # a stale __all__ entry breaks `from module import *`
    module = importlib.import_module(f"vlasov_transport.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
