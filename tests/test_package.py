"""Package surface: the names ``pulsectrl`` exports."""

import types
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import pulsectrl


def test_all_names_public_objects_not_submodules():
    assert len(set(pulsectrl.__all__)) == len(pulsectrl.__all__)
    for name in pulsectrl.__all__:
        assert not isinstance(getattr(pulsectrl, name), types.ModuleType), name


def test_distribution_version_is_package_version():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert project["name"] == "pulsectrl"
    assert project["version"] == pulsectrl.__version__
