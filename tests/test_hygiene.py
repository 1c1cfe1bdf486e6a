"""Code hygiene: no unused imports, no public name that only tests call, no unread parameter, no range rule
in the config parser.

The checks read the syntax trees of ``src/leakaudit`` and ``tests``; they
import nothing from the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "leakaudit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

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
        if name not in used
    ]
    assert problems == []


def unread_parameters(tree: ast.Module) -> list[str]:
    """``function(parameter)`` for each parameter that its function's body never reads.

    ``self`` and ``cls`` aside, and dunder methods, whose signatures Python's protocols fix.
    """
    problems = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(func, "name", "lambda")
        if name.startswith("__") and name.endswith("__"):
            continue
        args = func.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
        body = func.body if isinstance(func.body, list) else [func.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        problems += [f"{name}({p})" for p in params if p not in read and p not in ("self", "cls")]
    return problems


def test_every_parameter_is_read():
    problems = [f"{path.relative_to(ROOT)}: {p}" for path in SRC for p in unread_parameters(parse(path))]
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
