"""Every module in src/reelab/ and tests/ uses each name it imports.

No linter is a dependency of this project, so the check walks each
module's syntax tree with the standard library: a name bound by an
import must appear as a name somewhere in the module, or be listed in
its __all__ (the package's re-exports).
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
