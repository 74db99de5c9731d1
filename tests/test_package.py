"""Package surface: the names ``pulsectrl`` exports."""

import re
import types
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import pulsectrl

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_public_objects_not_submodules():
    assert len(set(pulsectrl.__all__)) == len(pulsectrl.__all__)
    for name in pulsectrl.__all__:
        assert not isinstance(getattr(pulsectrl, name), types.ModuleType), name


def test_distribution_version_is_package_version():
    pyproject = ROOT / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert project["name"] == "pulsectrl"
    assert project["version"] == pulsectrl.__version__


def test_every_export_has_a_reader_besides_the_tests():
    # a name only the tests read is surface to delete, not to export
    sources = [path.read_text() for folder in ("src", "demos", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))
               if path != ROOT / "src" / "pulsectrl" / "__init__.py"]
    unread = []
    for name in pulsectrl.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^[ \t]*(?:def|class)[ \t]+{re.escape(name)}\b", re.M)
        if not any(len(word.findall(text)) > len(definition.findall(text)) for text in sources):
            unread.append(name)
    assert not unread
