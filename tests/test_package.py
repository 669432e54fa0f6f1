"""The package's public names."""

import uvweave


def test_every_public_name_resolves():
    # ``from uvweave import *`` binds every name in ``__all__``
    namespace = {}
    exec("from uvweave import *", namespace)
    assert [name for name in uvweave.__all__ if name not in namespace] == []
