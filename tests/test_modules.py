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
    """No module, numkernel included, imports one of numpy's private modules (an import path with a part that starts
    with "_", dunders aside): LAPACK is reached through numpy.linalg's public calls alone."""
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
                if parts[0] == "numpy" and private:
                    found.append(f"{path.name}: {name}")
    assert not found, found


#: Functions that only bench/ and tests/ call, each kept until the change that retires it.
UNUSED_BY_SRC = {
    "numkernel.pinv_sqrt",  # named by bench/; leaves with ROADMAP items 1b and 8
    "cli.read_rows",  # named by bench/; leaves with ROADMAP items 1b and 8
}


def _trees_and_uses(ctx=ast.expr_context):
    """{module: tree} of src/pfmattack, and the (module, line, name) of every Name and Attribute there in ctx."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    uses = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ctx)
    ]
    return trees, uses


def _exempt(name: str) -> bool:
    return name.startswith("__") and name.endswith("__") or name in pfmattack.__all__


def test_every_function_serves_a_production_path():
    """A function defined in src/pfmattack is named somewhere in src/ outside its own body (an AST Name or
    Attribute), or exported in pfmattack.__all__, or a dunder: code that no production path uses is deleted, not
    left behind."""
    trees, uses = _trees_and_uses()
    unused = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or _exempt(node.name):
                continue
            if not any(name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
                       for where, line, name in uses):
                unused.add(f"{module}.{node.name}")
    assert unused == UNUSED_BY_SRC


#: Module-level names that src/ assigns and never reads, each kept until the change that retires it.
UNREAD_BY_SRC = {
    "attack.COLLECTIVE_ATTACK_QBER_LIMIT",  # read by tests; ROADMAP item 6 prints them
    "attack.TWO_WAY_POSTPROCESSING_QBER_LIMIT",  # read by tests; ROADMAP item 6 prints them
}


def test_every_module_name_serves_a_production_path():
    """A name assigned at the top level of a src/pfmattack module is read somewhere in src/ outside that assignment
    (an AST Name or Attribute in load context), or exported in pfmattack.__all__, or a dunder: a constant or knob that
    nothing reads is deleted, not left behind."""
    trees, reads = _trees_and_uses(ast.Load)
    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            # a Name binds, as does each Name of a tuple target; a subscript or attribute target binds none
            bound_names = [name.id for target in targets
                           for name in (target.elts if isinstance(target, ast.Tuple) else [target])
                           if isinstance(name, ast.Name)]
            for bound in bound_names:
                if not _exempt(bound) and not any(
                        name == bound and not (where == module and node.lineno <= line <= node.end_lineno)
                        for where, line, name in reads):
                    unread.add(f"{module}.{bound}")
    assert unread == UNREAD_BY_SRC
