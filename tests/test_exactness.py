"""Every value the library computes is an exact Fraction, so no module of
the package may write a float or complex literal or call float() or
complex().  The floating-point oracles live in tests/oracles.py.  The one
float in the package is the kernel task's remainder-bound diagnostic,
which is reported next to an exact value, never in place of one.

The package holds only what runs: a public name that nothing outside the
tests reaches is a test helper and belongs in tests/oracles.py, so does a
private module-level name that nothing in the package reads, and no
module of the package, its tests, its scripts, its tools or the benchmark
driver imports a name it never reads.

Every cache in the package is bounded: each lru_cache is given an
integer maxsize, so a long run of jobs cannot grow one without bound.

Each number is computed in one module: the kernel coefficients
poch(l, n)/n! are computed in rkhs.py alone (its table diag_coeff_rows
and the ratio recurrences of its diagonal sums and tail bound), so no
other module calls math.factorial and none defines, imports or names a
rising factorial.  Rationals are put over one denominator in one place:
the clear x.numerator * (d // x.denominator) is written only in
linalg._common_denominator, and its integer form, for the rows of the
poch table, only in rkhs.cleared_row.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import submodcurv

PACKAGE = Path(submodcurv.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {("cli.py", "float(bounded.bound)")}
ROOT = PACKAGE.parents[1]


def _floats(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            yield node
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("float", "complex"):
            yield node


def test_package_has_no_float_literals_or_conversions():
    assert len(MODULES) >= 10
    found = {(path.name, ast.unparse(node))
             for path in MODULES
             for node in _floats(ast.parse(path.read_text()))}
    assert found == ALLOWED


# a span or counter name such as "algebra.TruncSeries.__mul__"
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _public_names():
    """name -> the identifier that reaches it: every name of __all__, and
    "Class.attr" for each public attribute of a package class."""
    names = {name: name for name in submodcurv.__all__}
    for path in MODULES:
        module = importlib.import_module(f"submodcurv.{path.stem}")
        for cname, cls in vars(module).items():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                names.update((f"{cname}.{attr}", attr) for attr in vars(cls)
                             if not attr.startswith("_"))
    return names


def _referenced(trees):
    """(names, attributes): the identifiers read as a name, and those read
    as an attribute or named by a dotted string (the benchmark tracer binds
    its spans that way)."""
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    _DOTTED.fullmatch(node.value):
                attributes.update(node.value.split("."))
    return names, attributes


def test_no_public_name_is_test_only():
    """A module-level name counts as reached when it is read either way; a
    class attribute only when it is read as an attribute or named in a
    dotted string, so a local variable of the same name does not count."""
    names, attributes = _referenced(
        ast.parse(path.read_text())
        for tree in ("src", "scripts", "perfbench")
        for path in (ROOT / tree).rglob("*.py"))
    assert names | attributes >= {"cubic_positive_roots", "series_log"}
    assert "shift_by_monomial" in attributes
    test_only = {name for name, ident in _public_names().items()
                 if ident not in (attributes if "." in name
                                  else names | attributes)}
    assert test_only == set()
    # the check tells a loop variable from an attribute read
    assert _referenced([ast.parse("for block in K.blocks:\n    w = 1")]) == \
        ({"block", "K", "w"}, {"blocks"})


def _unread_imports(tree):
    """Names a module imports and never reads.  A name counts as read when
    it is loaded anywhere in the module or listed in its __all__."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_no_module_imports_a_name_it_never_reads():
    dirs = [ROOT / name
            for name in ("tests", "scripts", "perfbench", "tools")]
    paths = [*MODULES, *(path for d in dirs for path in d.glob("*.py"))]
    assert {path.parent for path in paths} == {PACKAGE, *dirs}
    found = {(str(path.relative_to(ROOT)), name)
             for path in paths
             for name in _unread_imports(ast.parse(path.read_text()))}
    assert found == set()
    # the check sees an unread import
    assert _unread_imports(ast.parse("from math import gcd, lcm\nlcm")) == \
        {"gcd"}


def _unread_private_names(trees):
    """(module, name) for each private module-level function, class or
    constant that no top-level statement of the package reads, other than
    the one that defines it; trees maps a module name to its ast."""
    defined, reads = [], []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            elif isinstance(stmt, ast.AnnAssign):
                names = {getattr(stmt.target, "id", "")}
            else:
                names = set()
            defined += [(module, n, stmt) for n in names
                        if n.startswith("_") and not n.startswith("__")]
            reads.append((stmt, {node.id if isinstance(node, ast.Name)
                                 else node.attr for node in ast.walk(stmt)
                                 if isinstance(node, ast.Name)
                                 and isinstance(node.ctx, ast.Load)
                                 or isinstance(node, ast.Attribute)}))
    return {(module, name) for module, name, home in defined
            if not any(name in read for stmt, read in reads
                       if stmt is not home)}


def test_every_private_name_is_read_in_the_package():
    """A private helper that only the tests call is test code: it belongs
    in tests/oracles.py, as public names that only the tests reach do."""
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    assert _unread_private_names(trees) == set()
    # the check sees a helper read only by itself, and an unread constant
    assert _unread_private_names({
        "a": ast.parse("_K = 1\ndef _f(n):\n    return _f(n - 1)\n"),
        "b": ast.parse("from a import _g\n_g()\n_h = 2")}) == \
        {("a", "_K"), ("a", "_f"), ("b", "_h")}


def _factorial_calls_and_pochhammer(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "factorial":
            yield ast.unparse(node)
        elif isinstance(node, ast.FunctionDef) and node.name == "pochhammer":
            yield f"def {node.name}"
        elif isinstance(node, ast.alias) and \
                node.name in ("pochhammer", "factorial"):
            yield f"import {node.name}"
        elif isinstance(node, ast.Name) and node.id == "pochhammer":
            yield node.id


def test_one_module_computes_the_kernel_coefficients():
    found = {(path.name, what)
             for path in MODULES
             for what in _factorial_calls_and_pochhammer(
                 ast.parse(path.read_text()))}
    assert found == {("rkhs.py", "math.factorial")}
    assert not hasattr(submodcurv, "pochhammer")


_CACHES = ("lru_cache", "cache")


def _unbounded_caches(tree):
    """The text of each functools cache that is not lru_cache with an
    integer maxsize: a bare @lru_cache or @cache, maxsize=None, or no
    maxsize at all."""
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "attr", getattr(node.func, "id", None)) \
                == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords
                                     if k.arg == "maxsize"]
            if len(sizes) == 1 and isinstance(sizes[0], ast.Constant) \
                    and type(sizes[0].value) is int:
                bounded.add(id(node.func))
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in _CACHES and id(node) not in bounded:
            yield ast.unparse(node)


def test_every_cache_is_bounded():
    found = {(path.name, text)
             for path in MODULES
             for text in _unbounded_caches(ast.parse(path.read_text()))}
    assert found == set()
    # the check sees each unbounded form and passes an integer maxsize
    assert sorted(_unbounded_caches(ast.parse(
        "@lru_cache\ndef f(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef g(): pass\n"
        "@functools.cache\ndef h(): pass\n"
        "@lru_cache()\ndef k(): pass\n"
        "@lru_cache(maxsize=64)\ndef ok(): pass\n"
        "@functools.lru_cache(8)\ndef ok2(): pass\n"))) == \
        ["functools.cache", "functools.lru_cache", "lru_cache", "lru_cache"]


def _clears(tree):
    """(function, text) for each clear in a module: a product with a
    floor quotient as a factor, x.numerator * (d // x.denominator), or a
    floor quotient by a denominator, x.numerator * d // x.denominator;
    function is the innermost enclosing def, and a clear is not searched
    again for the floor quotient inside it."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.BinOp) and (
                isinstance(node.op, ast.Mult) and any(
                    isinstance(side, ast.BinOp) and
                    isinstance(side.op, ast.FloorDiv)
                    for side in (node.left, node.right))
                or isinstance(node.op, ast.FloorDiv) and
                getattr(node.right, "attr", None) == "denominator"):
            found.append((where, ast.unparse(node)))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, where)
    visit(tree, None)
    return found


def test_rationals_are_cleared_in_one_place():
    found = {(path.name, where)
             for path in MODULES
             for where, _ in _clears(ast.parse(path.read_text()))}
    assert found == {("linalg.py", "_common_denominator"),
                     ("rkhs.py", "cleared_row")}
    # the check sees each form, inside a nested def too
    assert _clears(ast.parse(
        "def f(x, d):\n    return x.numerator * (d // x.denominator)\n"
        "def g(c, den):\n    def h():\n"
        "        return c.numerator * den // c.denominator\n"
        "    return (d // 2) * 3, n * 3 // 2\n")) == [
        ("f", "x.numerator * (d // x.denominator)"),
        ("h", "c.numerator * den // c.denominator"),
        ("g", "d // 2 * 3")]
