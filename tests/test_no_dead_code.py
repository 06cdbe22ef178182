"""Every top-level function in src/gcat/ is used somewhere.

A function counts as used when its name is loaded (as a name or an
attribute) anywhere in src/, scripts/, tests/ or perfbench/ outside its own
definition.  Importing a name does not count as using it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcat"
SEARCHED = [ROOT / d for d in ("src", "scripts", "tests", "perfbench")]


def used_names(tree):
    """Multiset of names loaded by `tree`, as bare names or attributes."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def unreferenced_functions(package=PACKAGE, searched=SEARCHED):
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for root in searched if root.is_dir() for path in sorted(root.rglob("*.py"))}
    everywhere = Counter()
    for tree in trees.values():
        everywhere.update(used_names(tree))
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = trees.get(path) or ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = used_names(node)[node.name]
                if everywhere[node.name] - inside <= 0:
                    dead.append(f"{path.name}:{node.lineno} {node.name}")
    return dead


def test_every_top_level_function_is_referenced():
    assert unreferenced_functions() == []


def test_planted_unused_function_is_reported(tmp_path):
    package = tmp_path / "src" / "gcat"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n",
        encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from gcat.mod import recursive, used\n\nused()\n", encoding="utf-8")
    dead = unreferenced_functions(package, [tmp_path / "src", tmp_path / "tests"])
    assert dead == ["mod.py:5 recursive"]
