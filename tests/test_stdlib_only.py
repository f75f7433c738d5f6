"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "varlex"

# The regex compiler's internals are private and change between releases.
_PRIVATE = {"re._parser", "re._compiler", "sre_parse", "sre_compile"}


def _imported_names(tree):
    """Every module an absolute import names, and for ``from m import n``
    also ``m.n``, which may be a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_runtime_imports_only_the_standard_library():
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in _imported_names(tree):
            where = f"{path.name}: {name}"
            assert name.split(".")[0] in sys.stdlib_module_names, where
            assert name not in _PRIVATE, where
