"""The core package stays stdlib-only.

numpy, orjson and other packages may be installed where the tests run, so an
import of one would pass every other test there and fail for users without
it.  This test reads the imports instead of running them.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "skylog"


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, nested ones included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_core_imports_only_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    outside = {path.name: sorted(_absolute_imports(path) - sys.stdlib_module_names)
               for path in modules}
    assert {name: found for name, found in outside.items() if found} == {}
