"""Each opcert module uses its siblings only through their public names.

A module that imports another's underscore-prefixed helper can rebuild that
module's work around its public API, so two copies of one algorithm drift
apart; the check keeps one implementation per job.
"""

import ast
from pathlib import Path

import opcert

PACKAGE = Path(opcert.__file__).parent


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
