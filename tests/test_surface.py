"""The package keeps no module-level code that nothing in it calls.

A function or class of ``src/inclusion_forge`` either serves the package,
so some other code of the package reads its name, or is public, so the
package's ``__all__`` lists it.  Code that only tests read lives in
``tests/oracles.py``.
"""

import ast
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
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_module_level_definition_is_used_in_the_package_or_exported():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    public = set(inclusion_forge.__all__)
    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in public:
                continue
            if not any(node.name in _names_read(other, skip=node) for other in trees.values()):
                unused.append(f"{module}.{node.name}")
    assert not unused, f"defined in src/ but neither used there nor in inclusion_forge.__all__: {unused}"


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
