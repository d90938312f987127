"""Source-level guards."""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "inls_lab").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so the paper's identities and the
    # input checks must raise explicitly
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def _calls_by_function(tree):
    """(outermost enclosing function name or None, dotted callee) for each
    call and each attribute reference of the module."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = node.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.append((owner, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            found.append((owner, node.func.id))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


# the one discrete gradient is the Crank-Nicolson edge form
# (grids.grad_sq_edges); central differences survive only where the
# derivative is not a |grad u|^2 integral
_GRADIENT_OWNER = ("grids.py", "radial_derivative")
_RADIAL_DERIVATIVE_CALLERS = {("inequalities.py", "hardy_ratio"),
                              ("virial.py", "lemma52_check")}


def test_one_discrete_gradient():
    gradient_uses, derivative_callers = set(), set()
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, callee in _calls_by_function(tree):
            if callee in ("np.gradient", "numpy.gradient"):
                gradient_uses.add((path.name, owner))
            elif callee in ("radial_derivative", "grids.radial_derivative"):
                derivative_callers.add((path.name, owner))
    assert gradient_uses == {_GRADIENT_OWNER}
    assert derivative_callers <= _RADIAL_DERIVATIVE_CALLERS
