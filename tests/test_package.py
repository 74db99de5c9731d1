"""Package surface: the names ``pulsectrl`` exports."""

import types

import pulsectrl


def test_all_names_public_objects_not_submodules():
    assert len(set(pulsectrl.__all__)) == len(pulsectrl.__all__)
    for name in pulsectrl.__all__:
        assert not isinstance(getattr(pulsectrl, name), types.ModuleType), name
