"""Dead-code guard: every public top-level function or class in
`src/steprouter`, and every public method of a top-level class, must be used
by the package or by `perfbench/`; every name a module imports must be
used by that module; and no module imports another module's private
(underscore) name.

A name counts as used when some module (its own included) refers to it
outside its own `def`/`class` statement: as a bare name, an attribute, an
imported name, or a string literal equal to the name (perfbench patches
layers by their string names). Tests do not count, so a helper that only
tests call fails here; that includes a theory check that `theory.CRITERIA`
does not list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steprouter"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _public_definitions(tree: ast.Module):
    """Public top-level names, then `Class.method` for each public method."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, FUNCTIONS) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_public_definition_is_unused():
    users = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set().union(*(_references(_parse(p)) for p in users))
    unused = [
        f"{path.name}:{label}"
        for path in sorted(PACKAGE.glob("*.py"))
        for label, name in _public_definitions(_parse(path))
        if name not in referenced
    ]
    assert not unused, f"public definitions used only by tests (or nobody): {unused}"


def _imported_names(tree: ast.Module):
    """(name, line) of every name an import statement binds, `__future__`
    features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_no_import_is_unused():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}:{name}" for name, line in _imported_names(tree)
                   if name not in loaded]
    assert not unused, f"imports that nothing in their module uses: {unused}"


def test_no_module_imports_a_private_name():
    private = [f"{path.name}:{line}:{name}" for path in sorted(PACKAGE.glob("*.py"))
               for name, line in _imported_names(_parse(path)) if name.startswith("_")]
    assert not private, f"imports of another module's private name: {private}"
