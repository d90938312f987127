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


def test_exponents_stay_exact():
    # the exponent identities are tested in integers and Fractions: a float
    # literal or numpy there would make a check approximate (an int / int
    # shows in the oracle test of test_exponents, as a float result)
    path = next(p for p in SRC if p.name == "exponents.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    floats = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    numpy = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "numpy" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "numpy")]
    assert (floats, numpy) == ([], [])


def _owned_nodes(node, owner=None):
    """(outermost enclosing function name or None, node) for each node of
    the tree under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
        owner = node.name
    yield owner, node
    for child in ast.iter_child_nodes(node):
        yield from _owned_nodes(child, owner)


def _calls_by_function(tree):
    """(outermost enclosing function name or None, dotted callee) for each
    call and each attribute reference of the module."""
    found = []
    for owner, node in _owned_nodes(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.append((owner, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            found.append((owner, node.func.id))
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


# every weighted grid sum is grids.dot, whose fixed blocks make it the same
# whatever the BLAS thread count; no other code takes a BLAS product
_REDUCTION_OWNER = ("grids.py", "dot")
_BLAS_PRODUCTS = ("dot", "vdot", "inner", "matmul")


def _takes_blas_product(node):
    """Whether node names np.dot, np.vdot, np.inner or np.matmul, as an
    attribute or a from-import, or applies the @ operator."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id in ("np", "numpy") and node.attr in _BLAS_PRODUCTS
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.ImportFrom):
        return (node.module == "numpy"
                and any(a.name in _BLAS_PRODUCTS for a in node.names))
    return False


def test_one_weighted_sum():
    owners = set()
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        owners |= {(path.name, owner) for owner, node in _owned_nodes(tree)
                   if _takes_blas_product(node)}
    assert owners == {_REDUCTION_OWNER}


def _private_top_level_names(tree):
    """Names starting with one underscore that the module binds at its top
    level: functions, classes and assigned constants."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """(top-level statement, name) for each name the module loads, each
    attribute it reads and each name it imports."""
    found = set()
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
            elif isinstance(node, ast.ImportFrom):
                found.update((owner, alias.name) for alias in node.names)
    return found


def test_private_names_are_used():
    # a helper that a consolidation left behind is referenced by no code in
    # src/ other than its own definition
    defined, used = set(), set()
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update((path.name, n) for n in _private_top_level_names(tree))
        used.update((path.name, owner, name) for owner, name in _references(tree))
    unused = sorted(
        (module, name) for module, name in defined
        if not any(n == name and (m, o) != (module, name) for m, o, n in used)
    )
    assert unused == []


def _imported_names(tree):
    """(line, bound name) for each name an import statement binds anywhere in
    the module, lazy imports inside functions included."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    return bound


def _exported_names(tree):
    """The string entries of the module's __all__, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_imported_names_are_used(path):
    # an import that a deletion left behind is loaded by no code in its
    # module; an __all__ entry counts as a use, for re-exports
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= _exported_names(tree)
    unused = [(line, name) for line, name in _imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name}: unused imports {unused}"


_CRITICAL_POWERS = {"mass_critical_p", "energy_critical_p", "lwp_lower_p"}


def test_classify_is_the_one_regime_comparison():
    # p meets a critical power only in grids.classify, under its tolerance;
    # everywhere else reads classify's kind and lwp_side
    found = []
    for path in SRC:
        if path.name == "grids.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Attribute) and sub.attr in _CRITICAL_POWERS
                    for operand in (node.left, *node.comparators)
                    for sub in ast.walk(operand)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _imports_scipy_linalg(node):
    """Whether an import statement loads any part of the scipy.linalg
    package, so also runs its __init__."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
    else:
        return False
    return any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names)


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_scipy_linalg_package_import(path):
    # the stepper loads scipy.linalg._flapack alone (evolution._flapack):
    # the package's __init__ costs a stepping process about 0.29 s and 22 MB
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _imports_scipy_linalg(node)]
    assert lines == [], f"{path.name}: scipy.linalg imported at lines {lines}"


def test_evolve_loop_shape():
    # evolve chooses its per-state observer before the loop: the loop never
    # tests record, and it calls the module-level step once per step, by
    # name, so a wrapper around evolution.step meters every step
    path = next(p for p in SRC if p.name == "evolution.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    evolve = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "evolve")
    loops = [node for node in ast.walk(evolve) if isinstance(node, ast.For)]
    assert len(loops) == 1
    names = [node.id for node in ast.walk(loops[0]) if isinstance(node, ast.Name)]
    assert "record" not in names
    steps = [node for node in ast.walk(evolve) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "step"]
    assert len(steps) == 1 and steps[0] in list(ast.walk(loops[0]))
    local = {node.id for node in ast.walk(evolve)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    local |= {node.name for node in ast.walk(evolve)
              if isinstance(node, ast.FunctionDef)}
    assert "step" not in local


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    # one import style: a module's dependencies are read at its top, not
    # inside a function body (evolution._flapack loads its module through
    # importlib calls, which are not import statements)
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [inner.lineno
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert lines == [], f"{path.name}: import inside a function at lines {lines}"


def test_one_trajectory_reader():
    # shoot reads every trajectory, the sweep's included, through its table
    # (ground_state._trajectory), the one caller of the RK4 integrator
    callers = []
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [(path.name, owner) for owner, node in _owned_nodes(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_shoot_trajectory"]
    assert callers == [("ground_state.py", "_trajectory")]
