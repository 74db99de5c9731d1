"""Package surface: the names ``pulsectrl`` exports."""

import json
import os
import re
import subprocess
import sys
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


# run in a fresh interpreter: what a CLI spectrum and region load, then the
# lazily resolved exports
FOOTPRINT = """
import contextlib, io, json, sys
from pulsectrl import cli
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    spectrum = cli.dispatch(["spectrum", "--f-der", "-3", "--to-log-der", "8"])
    new = set(sys.modules) - imported
    region = cli.dispatch(["region", "--grid", "5", "--min-gain"])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import pulsectrl
resolved = [name for name in pulsectrl.__all__ if getattr(pulsectrl, name, None) is not None]
star = {}
exec("from pulsectrl import *", star)
print(json.dumps({"exit": [spectrum, region], "scipy": scipy,
                  "new_numpy": sorted(m for m in new if m.split(".")[0] == "numpy"),
                  "resolved": resolved, "star": sorted(set(star) & set(pulsectrl.__all__))}))
"""


def test_spectrum_and_region_load_no_scipy():
    # SciPy's imports take longer than the rest of a cold spectrum; a spectrum
    # or a region sweep needs none of SciPy, and a spectrum no numpy module
    # (such as numpy.ma, which np.unique imports) past those the import loaded
    env = dict(os.environ)
    src = str(Path(pulsectrl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["exit"] == [0, 0]
    assert doc["scipy"] == []
    assert doc["new_numpy"] == []
    # every export resolves, and a star import binds each
    assert doc["resolved"] == pulsectrl.__all__
    assert doc["star"] == sorted(pulsectrl.__all__)
