"""The package's module boundaries: what one module of src/pfmattack may take from another."""

import ast
from pathlib import Path

import pfmattack

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


def test_only_numkernel_imports_a_private_numpy_module():
    """numpy's private modules (an import path with a part that starts with "_", dunders aside) are reached from
    numkernel alone, the module that wraps foreign code."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                dotted = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in dotted:
                parts = name.split(".")
                private = any(part.startswith("_") and not part.endswith("__") for part in parts)
                if parts[0] == "numpy" and private and path.name != "numkernel.py":
                    found.append(f"{path.name}: {name}")
    assert not found, found


#: Functions that only bench/ and tests/ call, each kept until the change that retires it.
UNUSED_BY_SRC = {
    "numkernel.pinv_sqrt",  # named by bench/; leaves with ROADMAP items 1b and 8
    "cli.read_rows",  # named by bench/; leaves with ROADMAP items 1b and 8
}


def test_every_function_serves_a_production_path():
    """A function defined in src/pfmattack is named somewhere in src/ outside its own body (an AST Name or
    Attribute), or exported in pfmattack.__all__, or a dunder: code that no production path uses is deleted, not
    left behind."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    uses = [  # (module, line, name) of every Name and Attribute in src/
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unused = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if dunder or node.name in pfmattack.__all__:
                continue
            if not any(name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
                       for where, line, name in uses):
                unused.add(f"{module}.{node.name}")
    assert unused == UNUSED_BY_SRC
