"""Source hygiene checks that need no linter."""

import ast
import os

import pytest

import zonokit

PACKAGE = os.path.dirname(zonokit.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE)
                 if f.endswith(".py") and f != "__init__.py")


def _parse(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = _parse(module)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{module} imports names it never uses: {unused}"


def _constants(tree):
    """UPPER_CASE names a module binds at its top level."""
    return {target.id for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
            if isinstance(target, ast.Name) and target.id.isupper()}


def _loads(tree):
    """Names a module reads, bare or as an attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


TESTS = os.path.dirname(os.path.abspath(__file__))


# A constant nothing reads is a leftover of code that has gone.
def test_every_constant_is_read():
    read = set()
    for module in MODULES + ["__init__.py"]:
        read |= _loads(_parse(module))
    for name in os.listdir(TESTS):
        if name.endswith(".py"):
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                read |= _loads(ast.parse(fh.read()))
    unread = sorted(f"{module}:{name}" for module in MODULES
                    for name in _constants(_parse(module)) - read)
    assert not unread, f"module constants nothing reads: {unread}"


# The oracle checks the library, so the library must not run its code.
# The CLI's volume and project subcommands are oracle front-ends.
ORACLE_USERS = ("oracle.py", "cli.py")


def _imports_oracle(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "zonokit.oracle" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in ("oracle", "zonokit.oracle"):
            return True
        return node.module in (None, "zonokit") and any(
            alias.name == "oracle" for alias in node.names)
    return False


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m not in ORACLE_USERS])
def test_library_does_not_import_the_oracle(module):
    lines = [node.lineno for node in ast.walk(_parse(module))
             if _imports_oracle(node)]
    assert not lines, f"{module} imports the oracle at lines {lines}"


# The oracle shares no code with what it checks: from the package it
# takes the set type's coercion and its exception, nothing else.
def test_oracle_borrows_only_set_coercion_from_the_package():
    borrowed = set()
    for node in ast.walk(_parse("oracle.py")):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("zonokit")):
            module = (node.module or "").removeprefix("zonokit.")
            borrowed |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            borrowed |= {(alias.name, None) for alias in node.names
                         if alias.name.startswith("zonokit")}
    assert borrowed == {("sets", "EmptySetError"), ("sets", "as_conzono")}


def _params(fn):
    a = fn.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
            + [a.vararg, a.kwarg] if p is not None]


def _calls_bare_super(fn):
    return any(isinstance(node, ast.Call) and not node.args
               and isinstance(node.func, ast.Name) and node.func.id == "super"
               for node in ast.walk(fn))


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    unread = []
    for fn in ast.walk(_parse(module)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        params = _params(fn)
        if params and _calls_bare_super(fn):
            read.add(params[0])  # zero-argument super() reads self
        unread += [(fn.lineno, getattr(fn, "name", "<lambda>"), p)
                   for p in params if p not in read]
    assert not unread, f"{module} has parameters it never reads: {unread}"


# Every library LP goes through numerics.solve_lp; the oracle solves
# its own programs with scipy directly, as an independent check.
LINPROG_USERS = {"numerics.py", "oracle.py"}


def _names_linprog(node):
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "linprog" for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == "linprog"


def test_only_numerics_and_oracle_import_linprog():
    users = {module for module in MODULES + ["__init__.py"]
             if any(map(_names_linprog, ast.walk(_parse(module))))}
    assert users == LINPROG_USERS


# The oracle's programs share one entry, oracle._solve: the solver
# tolerance and the reading of statuses are written once.
def test_oracle_names_linprog_in_one_call():
    calls = [node.lineno for node in ast.walk(_parse("oracle.py"))
             if isinstance(node, ast.Call) and "linprog" in (
                 getattr(node.func, "id", None),
                 getattr(node.func, "attr", None))]
    assert len(calls) == 1, f"oracle.py calls linprog at lines {calls}"


# solve_lp's outcomes are classified in numerics: the library reads an
# optimum through numerics._optimum, and only hpolytope_to_conzono reads
# statuses, because an empty or unbounded user polytope is a domain error.
STATUS_READERS = {"halfspaces.py"}
OUTCOME_NAMES = {"solve_lp", "OPTIMAL", "INFEASIBLE", "UNBOUNDED"}


def test_only_halfspaces_reads_lp_statuses():
    readers = {module for module in MODULES if module != "numerics.py"
               for node in ast.walk(_parse(module))
               if isinstance(node, ast.ImportFrom)
               and OUTCOME_NAMES & {alias.name for alias in node.names}}
    assert readers == STATUS_READERS


def _package_names(tree):
    """Names a module binds by importing from zonokit."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("zonokit")):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0]
                      for alias in node.names
                      if alias.name.startswith("zonokit")}
    return names


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


# A module attribute changed at run time leaks into every other caller.
def test_no_module_writes_another_modules_globals():
    writes = []
    for module in MODULES + ["__init__.py"]:
        tree = _parse(module)
        imported = _package_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            writes += [f"{module}:{node.lineno}" for target in targets
                       for sub in ast.walk(target)
                       if isinstance(sub, ast.Attribute)
                       and isinstance(sub.ctx, ast.Store)
                       and _root_name(sub) in imported]
    assert not writes, f"assignments to imported zonokit names at {writes}"


# LinearProgram.a_ub and .a_eq densify on every read; they serve the
# benchmark's traced LP counter, and the library reads A_ub and A_eq.
def test_library_reads_no_dense_program_views():
    reads = [f"{module}:{node.lineno}" for module in MODULES + ["__init__.py"]
             for node in ast.walk(_parse(module))
             if isinstance(node, ast.Attribute)
             and node.attr in ("a_ub", "a_eq")]
    assert not reads, f"dense LinearProgram views read at {reads}"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


# An object's private state is its own: another object or module that
# reads it depends on a layout its owner may change at will.
def test_private_attributes_are_read_only_off_self_or_cls():
    reads = [f"{module}:{node.lineno} {ast.unparse(node)}"
             for module in MODULES + ["__init__.py"]
             for node in ast.walk(_parse(module))
             if isinstance(node, ast.Attribute) and _private(node.attr)
             and not (isinstance(node.value, ast.Name)
                      and node.value.id in ("self", "cls"))]
    assert not reads, f"private attributes read off other objects at {reads}"


# A constraint entry of at most numerics.ZERO_ENTRY reads as zero, as in
# the LP backend; a second small literal in a zero test would bring back
# a second reading.  The oracle keeps its own tolerances on purpose.
ZERO_READERS = {"numerics.py", "oracle.py"}


def _calls_abs(node):
    return any(isinstance(sub, ast.Call) and "abs" in (
        getattr(sub.func, "id", None), getattr(sub.func, "attr", None))
        for sub in ast.walk(node))


def _small_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < node.value < 1e-6)


def test_only_numerics_reads_small_abs_values_against_literals():
    found = [f"{module}:{node.lineno}"
             for module in MODULES if module not in ZERO_READERS
             for node in ast.walk(_parse(module))
             if isinstance(node, ast.Compare)
             and any(map(_calls_abs, [node.left, *node.comparators]))
             and any(map(_small_literal, [node.left, *node.comparators]))]
    assert not found, f"abs(...) compared with a literal below 1e-6 at {found}"
