"""Code hygiene: no unused imports, no public name that only tests call, no range rule in the config parser.

The checks read the syntax trees of ``src/leakaudit`` and ``tests``; they
import nothing from the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "leakaudit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# Public names that stay although no src code calls them.
TEST_ONLY_EXPORTS = {
    # the scalar reference implementation run_lira is tested against
    "lira_score",
    # acceptance criterion 7 draws its null challenges with it
    "assign_membership",
    # the gradient oracle criterion 1 checks; fit takes the same gradients without the loss
    "loss_and_grads",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def unused_imports(tree: ast.Module) -> list[str]:
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported(tree))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_no_unused_imports():
    problems = []
    for path in SRC + TESTS:
        if path.name == "__init__.py":
            continue  # the package's imports are its public API
        problems += [f"{path.relative_to(ROOT)} {p}" for p in unused_imports(parse(path))]
    assert problems == []


def test_every_export_is_used_by_src():
    trees = {path: parse(path) for path in SRC}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    problems = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, tree in trees.items()
        for name in exported(tree)
        if name not in used and name not in TEST_ONLY_EXPORTS
    ]
    assert problems == []


def is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_validate_config_compares_nothing_with_a_number():
    """Range rules live in the recipe dataclasses that own the fields, not in the parser."""
    tree = parse(ROOT / "src" / "leakaudit" / "config.py")
    func = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "validate_config")
    problems = [
        f"config.py line {node.lineno}"
        for node in ast.walk(func)
        if isinstance(node, ast.Compare) and any(map(is_number, [node.left, *node.comparators]))
    ]
    assert problems == []
