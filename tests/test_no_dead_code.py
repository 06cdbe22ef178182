"""Every top-level function, and every method of a top-level class, in
src/gcat/ is used somewhere, and every local a function there assigns, and
every parameter it takes, is read.

A function or method counts as used when its name is loaded (as a name or an
attribute) anywhere in src/, scripts/, tests/ or perfbench/ outside its own
definition.  Importing a name does not count as using it.  Dunder methods are
called by the language and are not checked.  The same rules with tests/ left
out, tests/test_acceptance.py apart, find the functions that only tests use;
they are listed in TEST_ONLY, and any other is reported.

A local is dead when a function assigns it with a plain `name = ...` and
never loads it, nested functions included.  Tuple unpacking and loop targets
are not checked, and neither are names declared global or nonlocal.

A parameter is unread when the body of the function that takes it, nested
functions included, never loads it.  `self`, `cls` and the parameters of
dunder methods are not checked.

A field of a top-level `@dataclass` class in src/gcat/ is dead when no file
searched loads it as an attribute.  `InitVar` fields are passed to
`__post_init__`, not stored, and are not checked; `NamedTuple`s are not
dataclasses, and are unpacked by position.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcat"
SEARCHED = [ROOT / d for d in ("src", "scripts", "tests", "perfbench")]


def used_names(tree):
    """Multisets of the names `tree` loads as bare names and as attributes."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def definitions(tree):
    """Top-level functions and the non-dunder methods of top-level classes,
    as (qualified name, node, whether bare-name loads count as uses).  A
    method is reached only through an attribute, so only attributes count."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node, True
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item, False


def python_files(searched):
    """The .py files under each directory of `searched`, and each file of it."""
    for root in searched:
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        elif root.is_file():
            yield root


def unreferenced_functions(package=PACKAGE, searched=SEARCHED):
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in python_files(searched)}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        tree_names, tree_attributes = used_names(tree)
        names.update(tree_names)
        attributes.update(tree_attributes)
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = trees.get(path) or ast.parse(path.read_text(encoding="utf-8"), str(path))
        for qualified, node, bare in definitions(tree):
            inside_names, inside_attributes = used_names(node)
            uses = attributes[node.name] - inside_attributes[node.name]
            if bare:
                uses += names[node.name] - inside_names[node.name]
            if uses <= 0:
                dead.append(f"{path.name}:{node.lineno} {qualified}")
    return dead


def own_nodes(function):
    """The nodes of `function` outside the functions, lambdas and classes
    nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(package=PACKAGE):
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loaded = {node.id for node in ast.walk(function)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            assigned, declared = [], set()
            for node in own_nodes(function):
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
                elif isinstance(node, ast.Assign):
                    assigned += [t for t in node.targets if isinstance(t, ast.Name)]
            dead += [(path.name, t.lineno, function.name, t.id) for t in assigned
                     if t.id not in loaded and t.id not in declared]
    return [f"{name}:{line} {function}: {local}" for name, line, function, local in sorted(dead)]


def unread_parameters(package=PACKAGE):
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    function.name.startswith("__") and function.name.endswith("__")):
                continue
            loaded = {node.id for statement in function.body for node in ast.walk(statement)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            args = function.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                      *(a for a in (args.vararg, args.kwarg) if a is not None)]
            dead += [(path.name, a.lineno, function.name, a.arg) for a in params
                     if a.arg not in loaded and a.arg not in ("self", "cls")]
    return [f"{name}:{line} {function}: {param}" for name, line, function, param in sorted(dead)]


def is_dataclass_decorator(node):
    target = node.func if isinstance(node, ast.Call) else node
    return isinstance(target, ast.Name) and target.id == "dataclass"


def dataclass_fields(tree):
    """(class name, field node) for each annotated field of a top-level
    `@dataclass` class, `InitVar`s left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and not (
                        "InitVar" in ast.unparse(item.annotation)):
                    yield node.name, item


def unread_fields(package=PACKAGE, searched=SEARCHED):
    loaded = Counter(node.attr for path in python_files(searched)
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        dead += [f"{path.name}:{field.lineno} {cls}.{field.target.id}"
                 for cls, field in dataclass_fields(tree) if not loaded[field.target.id]]
    return dead


def test_every_top_level_function_is_referenced():
    assert unreferenced_functions() == []


def test_planted_unused_function_is_reported(tmp_path):
    package = tmp_path / "src" / "gcat"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = used()\n\n"
        "    def get(self):\n        return self.v\n\n"
        "    def unused(self, n):\n        return self.unused(n - 1) if n else self.get()\n",
        encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from gcat.mod import Box, recursive, used\n\nused()\nBox().get()\n", encoding="utf-8")
    dead = unreferenced_functions(package, [tmp_path / "src", tmp_path / "tests"])
    assert dead == ["mod.py:5 recursive", "mod.py:16 Box.unused"]


#: module.name of each function and method of src/gcat/ that only tests load,
#: tests/test_acceptance.py apart.  A name that joins them is reported: the
#: program stopped using it, and it should go or be listed here.
TEST_ONLY = {
    "actions.make_monoid", "actions.is_good_subgroup",
    "dwyer.normalize_unit", "dwyer.product_witness", "dwyer.monoid_dwyer_check",
    "serialize.sset_map_doc",
    "sset.FinSSet.face", "sset.OrderedComplex.dim", "sset.induced_cell_sd",
    "weq.f_weak_equivalence", "weq.conjugate_pair", "weq.discrete_avatar",
}


def functions_only_tests_use(root=ROOT):
    """module.name of each function and method of root/src/gcat/ that no file
    loads but those of root/tests/, root/tests/test_acceptance.py apart."""
    searched = [root / d for d in ("src", "scripts", "perfbench")]
    unused = unreferenced_functions(root / "src" / "gcat",
                                    searched + [root / "tests" / "test_acceptance.py"])
    return {f"{entry.split('.py:')[0]}.{entry.split()[1]}" for entry in unused}


def test_only_tests_use_the_listed_functions():
    assert sorted(functions_only_tests_use() - TEST_ONLY) == []
    assert sorted(TEST_ONLY - functions_only_tests_use()) == []


def test_planted_function_only_tests_use_is_reported(tmp_path):
    package = tmp_path / "src" / "gcat"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def checked():\n    return 2\n\n\n"
        "def tested():\n    return used()\n\n\n"
        "class Box:\n"
        "    def tested(self):\n        return used()\n",
        encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from gcat.mod import Box, tested\n\ntested()\nBox().tested()\n", encoding="utf-8")
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from gcat.mod import checked\n\nchecked()\n", encoding="utf-8")
    assert functions_only_tests_use(tmp_path) == {"mod.tested", "mod.Box.tested"}


def test_every_assigned_local_is_read():
    assert unread_locals() == []


def test_planted_unread_local_is_reported(tmp_path):
    package = tmp_path / "gcat"
    package.mkdir()
    (package / "mod.py").write_text(
        "def f(xs):\n"
        "    total = 0\n"
        "    unread = len(xs)\n"
        "    first, rest = xs[0], xs[1:]\n"
        "    for x in rest:\n"
        "        total += x\n"
        "\n"
        "    def g():\n"
        "        nonlocal total\n"
        "        total = 1\n"
        "        closure = 2\n"
        "        return unread_by_f\n"
        "\n"
        "    unread_by_f = total\n"
        "    return g\n",
        encoding="utf-8")
    assert unread_locals(package) == ["mod.py:3 f: unread", "mod.py:11 g: closure"]


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_planted_unread_parameter_is_reported(tmp_path):
    package = tmp_path / "gcat"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Box:\n"
        "    def __init__(self, v, unused_by_dunder):\n"
        "        self.v = v\n"
        "\n"
        "    def get(self, default, *args, flag=False, **options):\n"
        "        def inner(x, y):\n"
        "            return x + default\n"
        "\n"
        "        return inner(self.v, flag) if options else args\n"
        "\n"
        "    @classmethod\n"
        "    def make(cls, caps):\n"
        "        return cls(1, 2)\n",
        encoding="utf-8")
    assert unread_parameters(package) == ["mod.py:6 inner: y", "mod.py:12 make: caps"]


def test_every_dataclass_field_is_read():
    assert unread_fields() == []


def test_planted_unread_field_is_reported(tmp_path):
    package = tmp_path / "src" / "gcat"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "from dataclasses import InitVar, dataclass, field\n"
        "from typing import NamedTuple\n"
        "\n\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    read: int\n"
        "    written: int\n"
        "    hidden: dict = field(default_factory=dict)\n"
        "    flag: InitVar[bool] = False\n"
        "\n"
        "    def __post_init__(self, flag):\n"
        "        object.__setattr__(self, 'written', self.read)\n"
        "\n\n"
        "@dataclass\n"
        "class Cell:\n"
        "    value: int\n"
        "\n\n"
        "class Pair(NamedTuple):\n"
        "    first: int\n"
        "    second: int\n",
        encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from gcat.mod import Box, Cell\n\nc = Cell(1)\nc.value = 2\nBox(1, 2).hidden\n",
        encoding="utf-8")
    dead = unread_fields(package, [tmp_path / "src", tmp_path / "tests"])
    assert dead == ["mod.py:8 Box.written", "mod.py:18 Cell.value"]
