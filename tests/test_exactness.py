"""Every value the library computes is an exact Fraction, so no module of
the package may write a float or complex literal or call float() or
complex().  The floating-point oracles live in tests/oracles.py.  The one
float in the package is the kernel task's remainder-bound diagnostic,
which is reported next to an exact value, never in place of one.
"""

import ast
from pathlib import Path

import submodcurv

PACKAGE = Path(submodcurv.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {("cli.py", "float(bounded.bound)")}


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
