"""Package surface: ``pulsectrl`` exports only its version; every public
name lives in, and is imported from, its own submodule."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import pulsectrl

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pulsectrl"


def fresh_interpreter(script):
    """Run ``script`` in a new interpreter on this source tree and decode the
    JSON on its last line of output."""
    env = dict(os.environ)
    src = str(Path(pulsectrl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


BARE_IMPORT = """
import json, sys
import pulsectrl
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("numpy", "scipy") or m.startswith("pulsectrl."))))
"""


def test_import_loads_no_submodule_numpy_or_scipy():
    assert fresh_interpreter(BARE_IMPORT) == []


def test_distribution_version_is_package_version():
    pyproject = ROOT / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert project["name"] == "pulsectrl"
    assert project["version"] == pulsectrl.__version__


def public_definitions(tree):
    """Public module-level functions, classes and constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def reads(path, tree):
    """``module.name`` for each name of a pulsectrl submodule that a file
    reads: ``from module import name``, ``module.name``, and in the module's
    own file the bare name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("pulsectrl.")
            yield from (f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and path.parent == PACKAGE):
            yield f"{path.stem}.{node.id}"


def test_every_public_name_has_a_reader_besides_the_tests():
    # a name only the tests read is surface to delete, not to keep public
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "demos", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    read = set().union(*(reads(path, tree) for path, tree in trees.items()))
    defined = {f"{path.stem}.{name}" for path, tree in trees.items()
               if path.parent == PACKAGE for name in public_definitions(tree)}
    assert len(defined) > 40
    assert sorted(defined - read) == []


# what a CLI spectrum and region load, in a fresh interpreter
FOOTPRINT = """
import contextlib, io, json, sys
from pulsectrl import cli
imported = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    spectrum = cli.dispatch(["spectrum", "--f-der", "-3", "--to-log-der", "8"])
    new = set(sys.modules) - imported
    region = cli.dispatch(["region", "--grid", "5", "--min-gain"])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"exit": [spectrum, region], "scipy": scipy,
                  "new_numpy": sorted(m for m in new if m.split(".")[0] == "numpy")}))
"""


def test_spectrum_and_region_load_no_scipy():
    # SciPy's imports take longer than the rest of a cold spectrum; a spectrum
    # or a region sweep needs none of SciPy, and a spectrum no numpy module
    # (such as numpy.ma, which np.unique imports) past those the import loaded
    doc = fresh_interpreter(FOOTPRINT)
    assert doc["exit"] == [0, 0]
    assert doc["scipy"] == []
    assert doc["new_numpy"] == []
