"""The package's public names."""

from types import ModuleType

import liouvillelab


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from liouvillelab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(liouvillelab.__all__)
    assert len(namespace) == 60
    assert not any(isinstance(value, ModuleType) for value in namespace.values())
