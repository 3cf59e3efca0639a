"""Dead-code guard: every public top-level function or class in
`src/steprouter` must be used by the package or by `perfbench/`.

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


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name


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
        f"{path.name}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _public_definitions(_parse(path))
        if name not in referenced
    ]
    assert not unused, f"public definitions used only by tests (or nobody): {unused}"
