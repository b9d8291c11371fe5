"""Package structure: sibling modules share only public names."""

import ast
from pathlib import Path

import minmaxperm

SRC = Path(minmaxperm.__file__).parent


def test_no_private_name_imported_from_a_sibling():
    # a `_`-prefixed name belongs to its own module; the public names of
    # the private module `_kernels` may still be imported
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or node.module.startswith("minmaxperm"):
                private += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert private == []


def test_no_unused_import():
    # a name a module imports but never reads; `__init__` imports to
    # re-export, so it is skipped
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    if a.name != "annotations":
                        imported[(a.asname or a.name).split(".")[0]] = a.name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for bound, name in imported.items() if bound not in used]
    assert unused == []
