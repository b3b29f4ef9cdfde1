"""The package's module boundaries: what one module of src/pfmattack may take from another."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pfmattack"


def test_no_module_imports_a_private_name_from_another():
    """A relative import names only public names and dunders: a private name stays in its own module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    dunder = alias.name.startswith("__") and alias.name.endswith("__")
                    if alias.name.startswith("_") and not dunder:
                        found.append(f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}")
    assert not found, found
