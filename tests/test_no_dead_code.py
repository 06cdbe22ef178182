"""Every top-level function, and every method of a top-level class, in
src/gcat/ is reached from what runs gcat, and every local a function there
assigns, and every parameter it takes, is read.

Every function and method of src/gcat/ is reached from what runs gcat:
`main` (the console script gcat.cli:main), the module-level code of the
package, scripts/, perfbench/ and tests/test_acceptance.py.  The walk goes
through the names each reached function's body loads, to every function,
method and class of that name, and from a class to its dunder methods.  It
is name-based, so it errs towards reaching too much, never too little.  A
function that only tests reach, directly or through other such
functions, is reported: it belongs in the tests that use it.

A local is dead when a function assigns it with a plain `name = ...` and
never loads it, nested functions included.  Tuple unpacking and loop targets
are not checked, and neither are names declared global or nonlocal.

A parameter is unread when the body of the function that takes it, nested
functions included, never loads it.  `self`, `cls` and the parameters of
dunder methods are not checked.

Every document reader is in serialize.py: a function of src/gcat/ named
`*_from_doc` defined anywhere else is reported, and so is an import of
serialize by any module but serialize and cli.

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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def python_files(searched):
    """The .py files under each directory of `searched`, and each file of it."""
    for root in searched:
        if root.is_dir():
            yield from sorted(root.rglob("*.py"))
        elif root.is_file():
            yield root


def own_nodes(function):
    """The nodes of `function` outside the functions, lambdas and classes
    nested in it."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(package=PACKAGE):
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function in ast.walk(tree):
            if not isinstance(function, FUNCTIONS):
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
            if not isinstance(function, FUNCTIONS) or is_dunder(function.name):
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


def loads(nodes):
    """The names that `nodes` load, as bare names and as attributes alike."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def walk(nodes):
    """`nodes` and everything in them."""
    return (node for top in nodes for node in ast.walk(top))


def module_level_nodes(tree):
    """The nodes of `tree` that run when it is imported: everything but the
    bodies of functions and methods, whose decorators and defaults do run."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            stack += [*node.decorator_list, *node.args.defaults,
                      *(d for d in node.args.kw_defaults if d is not None)]
        else:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def unreachable_functions(root=ROOT):
    """Each function and method of root/src/gcat/ that no chain of loaded
    names reaches from the entry points: `main` (the console script
    gcat.cli:main), the module-level code of the package, and all of
    root/scripts/, root/perfbench/ and root/tests/test_acceptance.py.  A
    loaded name, bare or as an attribute, reaches every function and method
    of that name, and a class name the dunder methods of its class."""
    package = root / "src" / "gcat"
    targets, calls, seen = {}, {}, {"main"}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        seen |= loads(module_level_nodes(tree))
        for node in tree.body:
            # (the name that reaches it, its report name, its node)
            if isinstance(node, FUNCTIONS):
                defined = [(node.name, node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defined = [(node.name if is_dunder(item.name) else item.name,
                            f"{node.name}.{item.name}", item)
                           for item in node.body if isinstance(item, FUNCTIONS)]
            else:
                defined = []
            for name, qualified, item in defined:
                key = (path.name, item.lineno, qualified)
                targets.setdefault(name, []).append(key)
                calls[key] = loads(walk(item.body))
    for path in [*python_files([root / "scripts", root / "perfbench"]),
                 root / "tests" / "test_acceptance.py"]:
        seen |= loads(ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    reached, todo = set(), list(seen)
    while todo:
        for key in targets.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                todo += calls[key] - seen
                seen |= calls[key]
    return [f"{name}:{line} {qualified}" for name, line, qualified in sorted(calls.keys() - reached)]


def test_every_function_is_reached_from_an_entry_point():
    assert unreachable_functions() == []


def test_planted_unreachable_function_is_reported(tmp_path):
    package = tmp_path / "src" / "gcat"
    package.mkdir(parents=True)
    (package / "cli.py").write_text(
        "from .mod import Box, run\n\n\n"
        "def main():\n    return Box(run()).get()\n", encoding="utf-8")
    (package / "mod.py").write_text(
        "def run():\n    return 1\n\n\n"
        "def scripted():\n    return 2\n\n\n"
        "def helper():\n    return helper() + run()\n\n\n"
        "def tested():\n    return helper()\n\n\n"
        "class Box:\n"
        "    def __init__(self, v):\n        self.v = v\n\n"
        "    def get(self):\n        return self.v\n\n"
        "    def tested(self):\n        return self.v\n\n"
        "    def spin(self, n):\n        return self.spin(n - 1) if n else n\n\n\n"
        "class Unused:\n"
        "    def __len__(self):\n        return 0\n",
        encoding="utf-8")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text(
        "from gcat.mod import scripted\n\nscripted()\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("", encoding="utf-8")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from gcat.mod import Box, Unused, tested\n\ntested()\nBox(1).tested()\nlen(Unused())\n",
        encoding="utf-8")
    assert unreachable_functions(tmp_path) == [
        "mod.py:9 helper", "mod.py:13 tested", "mod.py:24 Box.tested", "mod.py:27 Box.spin",
        "mod.py:32 Unused.__len__"]


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


def imported_modules(node):
    """The gcat modules that an import statement `node` names, by last part."""
    if isinstance(node, ast.Import):
        return [alias.name.rpartition(".")[2] for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module in ("", "gcat"):   # from . import x, from gcat import x
            return [alias.name for alias in node.names]
        return [module.rpartition(".")[2]]
    return []


def document_boundary_faults(package=PACKAGE):
    """`*_from_doc` functions outside serialize.py, and imports of serialize
    outside serialize and cli."""
    faults = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (isinstance(node, FUNCTIONS)
                    and node.name.endswith("_from_doc") and path.name != "serialize.py"):
                faults.append(f"{path.name}:{node.lineno} defines {node.name}")
            if "serialize" in imported_modules(node) and path.stem not in ("serialize", "cli"):
                faults.append(f"{path.name}:{node.lineno} imports serialize")
    return faults


def test_document_readers_are_in_serialize():
    assert document_boundary_faults() == []


def test_planted_reader_outside_serialize_is_reported(tmp_path):
    package = tmp_path / "gcat"
    package.mkdir()
    (package / "serialize.py").write_text(
        "from .sset import FinSSet\n\n\ndef sset_from_doc(doc):\n    return FinSSet(doc)\n",
        encoding="utf-8")
    (package / "cli.py").write_text("from . import serialize as ser\n", encoding="utf-8")
    (package / "sset.py").write_text(
        "class FinSSet:\n"
        "    def from_doc(self):\n        return self\n\n\n"
        "def sset_from_doc(doc):\n"
        "    from .serialize import canonical_json\n"
        "    return canonical_json(doc)\n",
        encoding="utf-8")
    (package / "weq.py").write_text("import gcat.serialize\nfrom gcat import serialize\n",
                                    encoding="utf-8")
    assert document_boundary_faults(package) == [
        "sset.py:6 defines sset_from_doc", "sset.py:7 imports serialize",
        "weq.py:1 imports serialize", "weq.py:2 imports serialize"]
