"""The package keeps no code that nothing in it calls, and imports numpy alone.

A function or class of ``src/inclusion_forge`` either serves the package,
so some other code of the package reads its name, or is public, so the
package's ``__all__`` lists it.  So does each method or property: an
underscore one, or any of a class that is not exported, is read somewhere
in the package.  So does each module-level constant, a tuning knob above
all: one that nothing reads changes nothing.  Code that only tests read
lives in ``tests/oracles.py``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import inclusion_forge

SRC = Path(inclusion_forge.__file__).parent


def _names_read(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Every name and attribute read in tree outside the subtree ``skip``; imports do not count."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}


def _unread(trees: dict[str, ast.Module], node: ast.AST, name: str) -> bool:
    return not any(name in _names_read(other, skip=node) for other in trees.values())


def test_every_module_level_definition_is_used_in_the_package_or_exported():
    trees = _trees()
    public = set(inclusion_forge.__all__)
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in public:
                continue
            if _unread(trees, node, node.name):
                unused.append(f"{module}.{node.name}")
    assert not unused, f"defined in src/ but neither used there nor in inclusion_forge.__all__: {unused}"


def test_every_private_method_and_every_method_of_an_unexported_class_is_used_in_the_package():
    trees = _trees()
    public = set(inclusion_forge.__all__)
    unused = []
    for module, tree in sorted(trees.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("__"):
                    continue
                if (node.name.startswith("_") or cls.name not in public) and _unread(trees, node, node.name):
                    unused.append(f"{module}.{cls.name}.{node.name}")
    assert not unused, f"methods of src/ that nothing there reads: {unused}"


def _assigned_names(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """(statement, name) of every name a module binds by assignment at its top level, tuples unpacked."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        out += [
            (node, name.id) for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
        ]
    return out


def test_every_module_level_constant_is_read_in_the_package_or_exported():
    # dunders such as __all__ and __version__ are read by Python and its tools
    trees = _trees()
    public = set(inclusion_forge.__all__)
    unread = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for node, name in _assigned_names(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in public and _unread(trees, node, name)
    ]
    assert not unread, f"bound at module level in src/ but neither read there nor in inclusion_forge.__all__: {unread}"


def _imported_modules(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in tree, also inside functions."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.partition(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.partition(".")[0]))
    return out


def test_src_imports_only_numpy_and_the_standard_library():
    # numpy is the one dependency at run time; every other import is the
    # package's own or the standard library's
    allowed = set(sys.stdlib_module_names) | {"numpy", "inclusion_forge"}
    foreign = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := [
            (line, name)
            for line, name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
            if name not in allowed
        ])
    }
    assert not foreign, f"modules of src/ import these beyond numpy and the standard library: {foreign}"


def _environment_reads(tree: ast.AST) -> list[int]:
    """Lines that read ``os.environ`` or call ``os.getenv``, also when imported by name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    # every input of the library and the CLI is a document or a flag: a
    # variable of the environment would change verdicts without showing in either
    reads = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := _environment_reads(ast.parse(path.read_text(), filename=str(path))))
    }
    assert not reads, f"modules of src/ read the environment at these lines: {reads}"


def test_solves_never_load_the_off_slit_module():
    # every bundled case and a 16-slit layout solve in a fresh interpreter
    # without loading inclusion_forge.interior; the first interior call loads it
    script = """
import sys
from conftest import load_figure_inputs, slit_layout_inputs
from inclusion_forge import figures, pipeline
for case in figures.FIGURE_CASES:
    cfg, loading, materials, free, numerics, overrides = load_figure_inputs(case.name)
    a, rho = overrides.get("a"), overrides.get("rho")
    pipeline.solve(cfg, loading, materials, free, numerics, override_a=a, override_rho=rho)
sm = pipeline.solve(*slit_layout_inputs(16)).slit_map
print(len(figures.FIGURE_CASES), "inclusion_forge.interior" in sys.modules)
sm.omega_interior(0.3 + 0.5j)
print("inclusion_forge.interior" in sys.modules)
"""
    path = os.pathsep.join([str(SRC.parent), str(Path(__file__).parent)])
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.stdout.split() == ["16", "False", "True"]


def _imported_names(tree: ast.AST) -> set[str]:
    """The modules and names of every import in tree, the last part of a dotted module name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out |= {node.module, *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            out |= {alias.name.rpartition(".")[2] for alias in node.names}
    return out


def _readers(trees: dict[str, ast.Module], name: str) -> set[str]:
    """module.Class.function, or module.function, of each function in src that reads or imports ``name``.

    A module or class that imports it at its top level is named as well.
    """
    out = set()
    for module, tree in trees.items():
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        scopes = [(tree, module)] + [(node, f"{module}.{node.name}") for node in classes]
        for scope, qualified in scopes:
            for node in scope.body:
                if isinstance(node, ast.FunctionDef) and name in _names_read(node, skip=None) | _imported_names(node):
                    out.add(f"{qualified}.{node.name}")
                elif isinstance(node, (ast.Import, ast.ImportFrom)) and name in _imported_names(node):
                    out.add(qualified)
    return out


def test_only_the_interior_evaluators_reach_the_off_slit_module():
    # one method imports inclusion_forge.interior, and only the three
    # evaluators of values off the slits call it: nothing a solve runs
    trees = _trees()
    assert _readers(trees, "interior") == {"mapper.SlitMap._off_slit"}
    evaluators = ("omega_interior", "omega_regular", "F_interior")
    assert _readers(trees, "_off_slit") == {f"mapper.SlitMap.{name}" for name in evaluators}


def test_the_off_slit_module_reads_nothing_of_the_bank_pass():
    # the off-slit routes share no code with the values on the slit banks, so
    # a check of one against the other checks from outside
    tree = _trees()["interior"]
    bank_pass = {
        "banks", "_bank_sums", "_slit_sums", "_other_sums", "_interpolant_rows",
        "singular_on_stack", "cauchy_off_blocks",
    }
    assert not (_names_read(tree, skip=None) | _imported_names(tree)) & bank_pass
