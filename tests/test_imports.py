"""Every module uses each name it imports, and every private helper has a user.

No linter is a dependency of this project, so the checks walk syntax
trees with the standard library. A name bound by an import in src/reelab/
or tests/ must appear as a name somewhere in the module, or be listed in
its __all__ (the package's re-exports). A private module-level name of
src/reelab/ must be referenced outside its own definition somewhere in
src/, tests/, tools/ or perfbench/; perfbench patches some of them by
their name as a string, so string constants count as references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "reelab").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert paths
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


def _private_definitions(path: Path) -> dict[str, int]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {n: line for n, line in names.items() if n.startswith("_") and not n.startswith("__")}


def _references(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_no_dead_private_helpers():
    sources = sorted((ROOT / "src" / "reelab").glob("*.py"))
    users = sources + [
        path for sub in ("tests", "tools", "perfbench") for path in sorted((ROOT / sub).glob("*.py"))
    ]
    refs = set().union(*(_references(path) for path in users))
    defined = {
        f"{path.relative_to(ROOT)}:{line}: {name}": name
        for path in sources
        for name, line in _private_definitions(path).items()
    }
    assert defined
    assert [entry for entry, name in defined.items() if name not in refs] == []
