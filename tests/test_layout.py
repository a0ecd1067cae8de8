"""Source layout rules, checked on the syntax tree of every package module.

* Imports sit at module level, where a reader looks for a module's
  dependencies; none hides in a function body.
* The exponent limit handed to np.exp is one decision with one home
  (``hilbert.EXP_LIMIT``), so its literal appears once.
* numpy is the only runtime dependency: no module imports scipy, which
  the tests use as an oracle only.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cslsim").glob("*.py"))


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


def test_exponent_limit_literal_appears_once():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Constant) and type(node.value) is float
        and node.value == 700.0
    ]
    assert len(found) == 1, "700.0 appears at " + ", ".join(found)


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
