"""Source layout rules, checked on the syntax tree of every package module.

* Imports sit at module level, where a reader looks for a module's
  dependencies; none hides in a function body.
* The exponent limit handed to np.exp is one decision with one home
  (``hilbert.EXP_LIMIT``), so its literal appears once, and its double
  (a limit on a log squared norm) not at all.
* numpy is the only runtime dependency: no module imports scipy, which
  the tests use as an oracle only.
* The package keeps only what its callers use: every public top-level
  name is referenced outside its own definition, in the package, the
  benchmark or the README's library example.  Reference implementations
  that only tests need live in ``tests/oracles.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cslsim").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_no_imports_inside_functions():
    found = [
        f"{path.name}:{node.lineno} in {func.name}"
        for path in SOURCES
        for func in ast.walk(parse(path))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not found, "function-level imports: " + ", ".join(found)


def exponent_literals(value):
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and node.value == value
    ]


def test_exponent_limit_literal_appears_once():
    found = exponent_literals(700.0)
    assert len(found) == 1, "700.0 appears at " + ", ".join(found)
    doubled = exponent_literals(1400.0)
    assert not doubled, "1400.0 (twice the limit) appears at " + ", ".join(doubled)


def test_no_module_imports_scipy():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(parse(path))
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == "scipy")
    ]
    assert not found, "scipy imported at " + ", ".join(found)


def identifiers(tree):
    """Every name read and every attribute taken under ``tree``."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_every_public_name_has_a_caller_outside_the_tests():
    statements = [(path.name, stmt) for path in SOURCES for stmt in parse(path).body]
    used = [identifiers(stmt) for _, stmt in statements]
    outside = set()
    for path in sorted((ROOT / "cslbench").glob("*.py")):
        outside |= identifiers(parse(path))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        outside |= identifiers(ast.parse(block))
    unused = [
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in defined_names(stmt)
        if not name.startswith("_") and name not in outside
        and not any(name in ids for j, ids in enumerate(used) if j != i)
    ]
    assert not unused, "public names only tests use: " + ", ".join(unused)
