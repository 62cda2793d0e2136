"""Source hygiene, read from the syntax trees of ``src/expansion_lab``.

Every top-level private function is referenced somewhere in the package
besides its own definition, and every name a module imports is used in
that module, so a helper or an import left behind by a refactor fails
here rather than lingering.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "expansion_lab"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py"))}


def exported(node) -> set:
    """The strings of ``__all__`` when ``node`` assigns it, else none."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return set(ast.literal_eval(node.value))
    return set()


def referenced_names(node) -> set:
    """Names that ``node`` reads: bare names, attribute names, names
    imported from another module, and the strings of ``__all__``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        out |= exported(sub)
    return out


def private_functions():
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                yield module, node


@pytest.mark.parametrize(
    "module, function",
    list(private_functions()),
    ids=lambda x: x if isinstance(x, str) else x.name,
)
def test_private_function_is_used(module, function):
    # Any top-level statement of the package other than the def itself,
    # so a function that only calls itself counts as unused.
    users = [
        node
        for tree in MODULES.values()
        for node in tree.body
        if node is not function and function.name in referenced_names(node)
    ]
    assert users, f"{module}.{function.name} is defined but never used"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_imports_are_used(module):
    tree = MODULES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        used |= exported(node)
    unused = sorted(imported - used)
    assert not unused, f"{module} imports unused {unused}"
