"""Each opcert module uses its siblings only through their public names,
and uses every name it imports.

A module that imports another's underscore-prefixed helper can rebuild that
module's work around its public API, so two copies of one algorithm drift
apart; the check keeps one implementation per job.  An import that nothing
uses is left over from deleted code, and hides which modules depend on
which.  ``__init__.py`` is exempt from the second check: it re-exports.

The benchmark's tracer looks opcert's functions up by name in module and
class dictionaries, so a layer method inherited from a base class or an
import dropped from ``operator_net`` breaks it; the last check installs it.
"""

import ast
import importlib
from pathlib import Path

import opcert

PACKAGE = Path(opcert.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _private_sibling_imports(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("opcert"):
            continue
        found += [f"{path.name}:{node.lineno} imports {alias.name}"
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _private_sibling_imports(path)]
    assert not found, found


def test_boundary_check_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .transforms import _analysis_step, dwt\n"
                     "from opcert.linalg import _start_vector\n"
                     "from . import __version__\n", encoding="utf-8")
    assert _private_sibling_imports(probe) == [
        "probe.py:1 imports _analysis_step",
        "probe.py:2 imports _start_vector",
    ]


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_every_imported_name_is_used():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for hit in _unused_imports(path)]
    assert not found, found


def test_unused_import_check_sees_unused_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os\n"
                     "import numpy as np\n"
                     "import xml.dom\n"
                     "from .transforms import dwt, fft\n"
                     "y = dwt(np.zeros(4), xml.dom)\n", encoding="utf-8")
    assert _unused_imports(probe) == [
        "probe.py:2 imports os",
        "probe.py:5 imports fft",
    ]


def test_perfbench_tracer_wraps_and_restores_every_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    sites = [(owner, attr) for owner, attr, _ in tracing.SITES]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites if attr not in vars(owner)]
    assert not missing, missing
    originals = [vars(owner)[attr] for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr in sites]
    finally:
        tracer.uninstall()
    assert not any(w is o for w, o in zip(wrapped, originals))
    assert all(vars(owner)[attr] is o for (owner, attr), o in zip(sites, originals))
