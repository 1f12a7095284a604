"""The public API: every exported name resolves."""

import pytest

import costodds as co
from costodds import gadgets


@pytest.mark.parametrize("module", [co, gadgets], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
