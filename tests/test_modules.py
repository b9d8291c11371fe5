"""Package structure: sibling modules share only public names, numpy loads
only with `reconstruction`, and the package exports a fixed set of names."""

import ast
import json
from pathlib import Path

import pytest

import minmaxperm

from helpers import run_fresh

SRC = Path(minmaxperm.__file__).parent

# The modules that import numpy; the others, and so `import minmaxperm`
# and the CLI, load them only when a call needs them.
NUMPY_MODULES = ("reconstruction",)

# The names the package exports; the four reconstruction names resolve on
# first use.
EXPORTED = [
    "BArcPair", "BadEndpoints", "COutOfRange", "CyclicGraph", "Direction",
    "InternalInconsistency", "KConstraint", "KMismatch", "MinKResult", "MinMaxError",
    "MismatchedN", "NBRecord", "NotBijection", "NotDirected", "NotLinear", "Permutation",
    "PreconditionViolation", "Profile", "ProfileSyntaxError", "ProfileValidationError",
    "ProfileViolation", "RootClosure", "SolveOutcome", "TooLarge", "UniquenessReport",
    "brute_force_solutions", "collision_pair", "compute_profile", "compute_set_profile",
    "emit_permutation", "emit_profile", "errors", "fixed_positions_check", "formats",
    "graph", "is_linear", "is_unique", "min_unique_k", "nb_masks", "nb_set",
    "parse_permutation", "parse_profile", "profiles", "reconstruction", "root_closure",
    "solve_fpt_directed", "solve_linear", "solve_undirected", "solvers", "to_dot",
    "validate_permutation", "validate_profile", "verify", "__version__", "_kernels",
]


def test_no_private_name_imported_from_a_sibling():
    # a `_`-prefixed name belongs to its own module
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


def test_no_unused_private_name():
    # a module-level `_`-prefixed function, class or constant that no code
    # in the package reads: a leftover of the code that used it
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"{module}: {name}" for module, name in defined if name not in read] == []


def _imported(node):
    """The modules an import statement names, siblings by bare name; none
    for any other node."""
    if isinstance(node, ast.Import):
        return [a.name.removeprefix("minmaxperm.") for a in node.names]
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").removeprefix("minmaxperm").lstrip(".")
        # `from . import x` may import the sibling module x
        return [module] if module else [a.name for a in node.names]
    return []


def _import_time_modules(tree):
    """The modules a module imports when it is itself imported, that is by
    all but the imports inside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        yield from _imported(node)


def test_numpy_only_at_the_kernels():
    # numpy at module level only in `reconstruction`, and no other module
    # imports it at module level
    found = []
    for path in sorted(SRC.glob("*.py")):
        for module in _import_time_modules(ast.parse(path.read_text())):
            top = module.split(".")[0]
            if path.stem not in NUMPY_MODULES and top in ("numpy", *NUMPY_MODULES):
                found.append(f"{path.name}: {module}")
    assert found == []


def test_only_reconstruction_imports_the_kernels():
    # the oracle reads profile entries alone; the batch kernels serve only
    # the uniqueness grouping, so no other module imports numpy, inside a
    # function body or not
    found = [f"{path.name}: {module}" for path in sorted(SRC.glob("*.py"))
             if path.stem not in NUMPY_MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             for module in _imported(node) if module.split(".")[0] == "numpy"]
    assert found == []


def test_kernels_name_loads_numpy():
    # perfbench/run.py:323 (`run_header`) reads `minmaxperm._kernels` and
    # then `sys.modules["numpy"]` in every benchmark run
    script = """
import json, sys
import minmaxperm
before = "numpy" in sys.modules
kernels = minmaxperm._kernels
print(json.dumps([before, kernels is minmaxperm.reconstruction, "numpy" in sys.modules]))
"""
    assert json.loads(run_fresh(script)) == [False, True, True]


def test_uniqueness_names_shared():
    # `reconstruction` keeps the oracle's uniqueness names as the same
    # objects, so patching or importing either module reaches one function
    from minmaxperm import reconstruction, solvers
    assert reconstruction.is_unique is solvers.is_unique is minmaxperm.is_unique
    assert reconstruction.UniquenessReport is solvers.UniquenessReport


@pytest.mark.parametrize("how", ["getattr", "from-import"])
def test_exported_names_resolve(how):
    # in a fresh process, so that the lazily resolved names start unloaded;
    # each resolved value is then a plain module global
    script = """
import json, sys
import minmaxperm
how, names, out = sys.argv[1], sys.argv[2:], {}
for name in names:
    if how == "getattr":
        value = getattr(minmaxperm, name)
    else:
        scope = {}
        exec(f"from minmaxperm import {name}", scope)
        value = scope[name]
    out[name] = vars(minmaxperm).get(name) is value
print(json.dumps(out))
"""
    assert json.loads(run_fresh(script, how, *EXPORTED)) == dict.fromkeys(EXPORTED, True)


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(minmaxperm, "no_such_name")
    with pytest.raises(ImportError):
        exec("from minmaxperm import no_such_name", {})
