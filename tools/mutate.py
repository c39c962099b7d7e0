"""Mutation audit of the test suite: one mutant at a time, per function.

    python3 tools/mutate.py MODULE.QUALNAME [MODULE.QUALNAME ...]

A target names a function of the package, such as ``cli._read_plain_config``
or ``rkhs.GramFormKernel.from_ideal``.  The tool copies the checkout to a
temporary directory and makes one mutant per site in the target's body:

- a comparison flipped: ``<`` and ``>=``, ``>`` and ``<=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
- ``+`` and ``-`` swapped, and ``*`` and ``//``, in an expression or an
  augmented assignment;
- 1 added to an int constant;
- ``and`` and ``or`` swapped.

Sites inside an f-string are left alone.  Each mutant replaces the
module's source in the copy and runs ``python -m pytest -x -q`` with
``--hypothesis-seed=0`` over the test modules that import the mutated
module (``tests/test_<module>.py`` first), then ``tests/test_golden.py``
and ``tests/test_pins.py``, with no bytecode written and no hypothesis
database carried from one mutant to the next.

Each copy holds a pytest plugin, written there by the tool and loaded
with ``-p``.  In the unmutated run it records each test's time.  In a
mutant's run it arms ``faulthandler.dump_traceback_later`` around each
test, at WATCHDOG_FACTOR times that test's recorded time plus
WATCHDOG_FLOOR seconds, so a mutant that loops ends in seconds with
every thread's stack; pytest's own faulthandler_timeout is off in that
run alone.  The mutant is timed out if the watchdog fires, or if the run
goes past twice the unmutated run of the same modules plus 20 s; killed
if pytest fails otherwise; and survives if it passes.  Two copies run
the unmutated modules and then the mutants side by side.  The tool
prints the killed, survived and timed-out counts of each target, lists
each mutant not killed by file, line and change, and prints the stacks
of each one the watchdog stopped.
"""

from __future__ import annotations

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
         ast.FloorDiv: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-",
           ast.Mult: "*", ast.FloorDiv: "//", ast.And: "and", ast.Or: "or"}
WORKERS = 2
WATCHDOG_FACTOR = 5
WATCHDOG_FLOOR = 2.0  # seconds
# the plugin each copy loads: MUTATE_TIMES names the file of test times,
# which the unmutated run writes; MUTATE_STACKS, set in a mutant's run
# alone, names the file the watchdog writes its stacks to
PLUGIN = f'''\
import faulthandler
import json
import os
import time

import pytest

TIMES = os.environ["MUTATE_TIMES"]
STACKS = os.environ.get("MUTATE_STACKS")
times = {{}}
if STACKS:
    with open(TIMES, encoding="utf-8") as fh:
        times = json.load(fh)
    stacks = open(STACKS, "w", encoding="utf-8")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not STACKS:
        start = time.perf_counter()
        yield
        times[item.nodeid] = time.perf_counter() - start
        return
    if item.nodeid in times:
        faulthandler.dump_traceback_later(
            {WATCHDOG_FACTOR} * times[item.nodeid] + {WATCHDOG_FLOOR},
            exit=True, file=stacks)
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_sessionfinish(session):
    if not STACKS:
        with open(TIMES, "w", encoding="utf-8") as fh:
            json.dump(times, fh)
'''


def find_target(tree, qualname):
    node = tree
    for name in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                    and child.name == name)
    return node


def sites(function):
    """The nodes of a function body, outside f-strings."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, ast.JoinedStr):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def mutations(node):
    """(change, replacement text) for each mutant of one node."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        yield f"{node.value} -> {node.value + 1}", str(node.value + 1)
        return
    if isinstance(node, ast.Compare):
        ops = [(k, op) for k, op in enumerate(node.ops)]
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and \
            type(node.op) in SWAPS:
        ops = [(None, node.op)]
    else:
        return
    for k, op in ops:
        new = copy.deepcopy(node)
        if k is None:
            new.op = SWAPS[type(op)]()
        else:
            new.ops[k] = SWAPS[type(op)]()
        text = ast.unparse(new)
        if not isinstance(node, ast.stmt):
            text = f"({text})"
        yield f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}", text


def mutants(target):
    """(module, change, source) for each mutant of one target, in source
    order; col_offset counts UTF-8 bytes, so the source is spliced as
    bytes."""
    module, qualname = target.split(".", 1)
    path = ROOT / "src" / "submodcurv" / f"{module}.py"
    source = path.read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []
    for node in sites(find_target(ast.parse(source), qualname)):
        for change, text in mutations(node):
            begin = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            new = source[:begin] + text.encode() + source[end:]
            compile(new, str(path), "exec")
            found.append(((node.lineno, node.col_offset), change, new))
    return [(module, f"{module}.py:{line}: {change}", new)
            for (line, _), change, new in sorted(found, key=lambda f: f[0])]


def imports_module(path, module):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.module == f"submodcurv.{module}"
                or node.module == "submodcurv"
                and any(a.name == module for a in node.names)):
            return True
        if isinstance(node, ast.Import) and any(
                a.name == f"submodcurv.{module}" for a in node.names):
            return True
    return False


def suite_for(module):
    own = f"tests/test_{module}.py"
    others = sorted(str(path.relative_to(ROOT))
                    for path in (ROOT / "tests").glob("test_*.py")
                    if imports_module(path, module))
    files = [own] if own in others else []
    files += [f for f in others if f != own]
    for last in ("tests/test_golden.py", "tests/test_pins.py"):
        if last in files:
            files.remove(last)
        files.append(last)
    return files


def run_tests(tree, files, times, timeout=None, mutant=True):
    """('killed', 'survived' or 'timed out', the seconds taken, the
    watchdog's stacks or ''): the unmutated run (mutant False) writes the
    test times to the file times, which a mutant's run reads."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", MUTATE_TIMES=times)
    options = []
    stacks = tree / ".mutant_stacks"
    stacks.unlink(missing_ok=True)
    if mutant:
        env["MUTATE_STACKS"] = str(stacks)
        options = ["-o", "faulthandler_timeout=0"]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-p", "mutant_watchdog", *options,
             "--hypothesis-seed=0", *files],
            cwd=tree, env=env, timeout=timeout, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - start, ""
    seconds = time.perf_counter() - start
    text = stacks.read_text(encoding="utf-8") if stacks.exists() else ""
    if text:
        return "timed out", seconds, text
    return ("killed" if done.returncode else "survived"), seconds, ""


def copy_tree(into):
    tree = Path(into)
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work"))
    (tree / "mutant_watchdog.py").write_text(PLUGIN, encoding="utf-8")
    return tree


def main(argv=None):
    targets = sys.argv[1:] if argv is None else argv
    if not targets:
        sys.exit(__doc__.split("\n\n")[1])
    with tempfile.TemporaryDirectory() as scratch:
        trees = Queue()
        for k in range(WORKERS):
            trees.put(copy_tree(Path(scratch) / str(k)))

        def run(module, source=None, timeout=None):
            tree = trees.get()
            path = tree / "src" / "submodcurv" / f"{module}.py"
            original = path.read_bytes()
            times = str(Path(scratch) / f"{module}.times.json")
            try:
                path.write_bytes(source or original)
                return run_tests(tree, suite_for(module), times, timeout,
                                 mutant=source is not None)
            finally:
                path.write_bytes(original)
                trees.put(tree)

        with ThreadPoolExecutor(WORKERS) as pool:
            modules = sorted({t.split(".", 1)[0] for t in targets})
            timeouts = {}
            for module, (verdict, seconds, _) in zip(modules,
                                                     pool.map(run, modules)):
                if verdict != "survived":
                    sys.exit(f"the unmutated tests of {module} fail")
                timeouts[module] = 2 * seconds + 20
            found = {target: mutants(target) for target in targets}
            outcomes = pool.map(
                lambda m: run(m[0], m[2], timeouts[m[0]]),
                chain.from_iterable(found.values()))
            for target, group in found.items():
                group = [(change, *next(outcomes)) for _, change, _ in group]
                counts = [sum(v == verdict for _, v, _, _ in group)
                          for verdict in ("killed", "survived", "timed out")]
                print("%s: %d mutants, %d killed, %d survived, %d timed out"
                      % (target, len(group), *counts), flush=True)
                for change, verdict, _, stacks in group:
                    if verdict != "killed":
                        print(f"  {verdict}: {change}", flush=True)
                    for line in stacks.splitlines():
                        print(f"    {line}", flush=True)


if __name__ == "__main__":
    main()
