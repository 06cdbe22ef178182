#!/usr/bin/env python3
"""Which statements of src/gcat/ nothing runs, by a line trace.

    python3 scripts/line_reach.py

Three runs, each under a line trace of its whole process tree:

- `tests`: the tier-1 suite, `python -m pytest -q` with pytest's cache off,
  CLI subprocesses included;
- `acceptance`: `scripts/run_acceptance.py`;
- `perfbench`: `perfbench/run.py --workload all --seed k --seconds 1` for
  k = 1, 2, 3.

A `sitecustomize` module in a temporary directory, put first on each run's
PYTHONPATH, installs `sys.settrace` (and `threading.settrace`) in every
Python process started under it, and at exit writes the lines of src/gcat/
that the process ran to that directory.  A subprocess that keeps PYTHONPATH
is traced as well; one that drops it is not (the tests that run the scripts
from a plain checkout do, and the `acceptance` run covers their code).

A statement is executable when its first line starts bytecode in the
module's code objects: a docstring, `global` or `nonlocal` has none.  It is
run when a trace saw that line, so a statement that shares its line with
another one that ran counts as run.  The script prints the executable
statements that no run reached, then those that only the `tests` run
reached, grouped by function, and then each `raise` that nothing runs with
its text.  It exits 1 when a run fails.

Nothing is written into the checkout beyond what the runs themselves write
(perfbench's `perfbench/out/`): the trace files go to the temporary
directory, which is removed, and no bytecode is written.  The traced tier-1
run takes several times as long as an untraced one.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gcat"
SEEDS = (1, 2, 3)

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_PREFIX = os.environ["LINE_REACH_PREFIX"]
_hits, _tracers = {}, {}


def _tracer_for(filename):
    add = _hits.setdefault(filename, set()).add

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local
    return local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    tracer = _tracers.get(filename)
    if tracer is None:
        tracer = _tracers[filename] = _tracer_for(filename)
    return tracer


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(os.environ["LINE_REACH_DIR"],
                        f"{os.environ['LINE_REACH_RUN']}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump({name: sorted(lines) for name, lines in _hits.items()}, out)


sys.settrace(_global)
threading.settrace(_global)
'''


def runs():
    """(run name, argv) for each traced run."""
    yield "tests", [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors"]
    yield "acceptance", [sys.executable, str(ROOT / "scripts" / "run_acceptance.py")]
    for seed in SEEDS:
        yield "perfbench", [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
                            "--seed", str(seed), "--seconds", "1"]


def code_lines(code):
    """The lines that start bytecode in `code` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path):
    """(line, function, text) for each executable statement of `path`, where
    function is the qualified name of the innermost function or class
    around it ("" at module level)."""
    source = path.read_text(encoding="utf-8")
    executable = code_lines(compile(source, str(path), "exec"))
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt) and child.lineno in executable:
                out.append((child.lineno, scope, ast.get_source_segment(source, child) or ""))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(ast.parse(source, str(path)), "")
    return sorted(set((line, scope, text.splitlines()[0] if text else "")
                      for line, scope, text in out))


def report(title, stmts):
    """Print `stmts` ((file, line, function, text)) grouped by function."""
    print(f"{title}: {len(stmts)} statements")
    groups = defaultdict(list)
    for name, line, scope, _ in stmts:
        groups[(name, scope)].append(line)
    for (name, scope), lines in sorted(groups.items(), key=lambda g: (g[0][0], min(g[1]))):
        print(f"  {name} {scope or '<module>'}: {' '.join(map(str, lines))}")


def main():
    ran = defaultdict(set)   # run name -> {(file name, line)}
    failed = []
    with tempfile.TemporaryDirectory(prefix="line-reach-") as tmp:
        (Path(tmp) / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        path = os.pathsep.join(p for p in (tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                               if p)
        for name, argv in runs():
            env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1",
                   "LINE_REACH_PREFIX": str(PACKAGE) + os.sep, "LINE_REACH_DIR": tmp,
                   "LINE_REACH_RUN": name}
            print(f"tracing {name}: {' '.join(argv[1:])}", file=sys.stderr, flush=True)
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
            if proc.returncode != 0:
                failed.append(f"{name} exited with {proc.returncode}")
        for dump in Path(tmp).glob("*.json"):
            run = dump.name.rsplit("-", 1)[0]
            for filename, lines in json.loads(dump.read_text(encoding="utf-8")).items():
                ran[run] |= {(Path(filename).name, line) for line in lines}
    everything = set().union(*ran.values())
    others = set().union(*(lines for run, lines in ran.items() if run != "tests"))
    stmts = [(path.name, *s) for path in sorted(PACKAGE.glob("*.py")) for s in statements(path)]
    never = [s for s in stmts if s[:2] not in everything]
    report("never run", never)
    report("run only by the tier-1 tests", [s for s in stmts if s[:2] in ran["tests"]
                                            and s[:2] not in others])
    raises = [s for s in never if s[3].startswith("raise")]
    print(f"raise statements never run: {len(raises)} of "
          f"{sum(s[3].startswith('raise') for s in stmts)}")
    for name, line, scope, text in raises:
        print(f"  {name}:{line} {scope}: {text}")
    for line in failed:
        print(f"run failed: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
