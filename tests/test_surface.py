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
