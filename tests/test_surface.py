"""The program's public surface: every public module-level function or class of
``audioretrieval`` is named by some other code of the package, so nothing there is kept
only for tests."""
import ast
from pathlib import Path

import audioretrieval

PACKAGE = Path(audioretrieval.__file__).parent
# kept for code outside the package: the benchmark's worker decodes whole splits with it
KEPT_FOR_OUTSIDE = ["data.load_manifest"]


def _names(node: ast.AST) -> set[str]:
    """Every name that code under ``node`` uses: names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
    return found


def unnamed_definitions(package: Path) -> list[str]:
    """``module.name`` of each public module-level function or class of the package's
    modules that no statement of the package, other than its own definition, names."""
    definitions, uses = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_"):
                definitions.append((f"{path.stem}.{node.name}", node))
            uses.append((node, _names(node)))
    return [qualified for qualified, node in definitions
            if not any(qualified.rpartition(".")[2] in names
                       for other, names in uses if other is not node)]


def test_every_public_definition_is_used_by_the_package():
    assert unnamed_definitions(PACKAGE) == KEPT_FOR_OUTSIDE


def test_scan_finds_a_definition_nothing_names(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    return 1\n\n\ndef lone():\n    return lone\n"
                                   "\n\nclass Kept:\n    x = used()\n")
    (tmp_path / "b.py").write_text("from .a import Kept\n\n\ndef _private():\n    return Kept\n")
    assert unnamed_definitions(tmp_path) == ["a.lone"]
