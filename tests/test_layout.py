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
  benchmark or the README's library example; every public method and
  dataclass field of a public class is read outside that class; and every
  option of a public function is passed by some such caller.  Reference
  implementations that only tests need live in ``tests/oracles.py``.
"""

import ast
import re
from collections import Counter
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


def outside_trees():
    """The callers outside the package: the benchmark's modules and the
    README's python blocks."""
    trees = [parse(path) for path in sorted((ROOT / "cslbench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    return trees + [ast.parse(block) for block
                    in re.findall(r"```python\n(.*?)```", readme, flags=re.S)]


def test_every_public_name_has_a_caller_outside_the_tests():
    statements = [(path.name, stmt) for path in SOURCES for stmt in parse(path).body]
    used = [identifiers(stmt) for _, stmt in statements]
    outside = set()
    for tree in outside_trees():
        outside |= identifiers(tree)
    unused = [
        f"{module}:{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in defined_names(stmt)
        if not name.startswith("_") and name not in outside
        and not any(name in ids for j, ids in enumerate(used) if j != i)
    ]
    assert not unused, "public names only tests use: " + ", ".join(unused)


def attribute_loads(tree):
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def public_classes(modules):
    return [cls for tree in modules for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")]


def is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


# Members that no caller reads yet, each with its reason.
UNREAD_MEMBERS = {
    # The accuracy figures of a deterministic run, bound for the run
    # manifest (ROADMAP, observability).
    "LindbladSeries.achieved_halving_error",
    "LindbladSeries.seam_mass_max",
}


def test_every_public_member_is_read_outside_its_class():
    """A public method or dataclass field is read, as an attribute load,
    outside its own class, or inside one of the class's methods that is
    itself so read (a ``write`` method that serializes its record reads
    the record's fields).
    Loads match by attribute name: a receiver has no static type here."""
    modules = [parse(path) for path in SOURCES]
    loads = Counter()
    for tree in modules + outside_trees():
        loads += attribute_loads(tree)
    unread = []
    for cls in public_classes(modules):
        methods = {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}
        members = list(methods)
        if is_dataclass(cls):
            members += [stmt.target.id for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign)]
        own = attribute_loads(cls)
        read = {name for name in members if loads[name] > own[name]}
        frontier = list(read)
        while frontier:
            method = methods.get(frontier.pop())
            if method is not None:
                new = set(attribute_loads(method)) - read
                read |= new
                frontier += new
        unread += [f"{cls.name}.{name}" for name in members
                   if not name.startswith("_") and name not in read
                   and f"{cls.name}.{name}" not in UNREAD_MEMBERS]
    assert not unread, "members only tests read: " + ", ".join(unread)


# Options that no caller passes, each with its reason.
UNPASSED_OPTIONS = {
    # The console script calls the entry point bare, so that it parses
    # sys.argv; a list is for callers that run it in-process.
    "main(argv)",
}


def name_of(node):
    """The name a Name node reads or an Attribute node takes."""
    return node.id if isinstance(node, ast.Name) else node.attr


def test_every_option_of_a_public_function_is_passed():
    """Every defaulted parameter of a public function, or of a public
    method of a public class, is passed by some caller: in the package
    outside the function itself, in the benchmark or in the README's
    python block.  Calls match by name.  A function named outside a call,
    as ``acceptance.RUNNERS`` names its criteria, counts as passing all of
    its parameters."""
    modules = [parse(path) for path in SOURCES]
    functions = [(stmt, False) for tree in modules for stmt in tree.body
                 if isinstance(stmt, ast.FunctionDef)]
    functions += [(f, not any(getattr(d, "id", None) == "staticmethod"
                              for d in f.decorator_list))
                  for cls in public_classes(modules) for f in cls.body
                  if isinstance(f, ast.FunctionDef)]
    calls, named = [], []
    for tree in modules + outside_trees():
        tree_calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        callees = {id(call.func) for call in tree_calls}
        calls += tree_calls
        named += [node for node in ast.walk(tree) if id(node) not in callees
                  and isinstance(node, (ast.Name, ast.Attribute))]
    calls = [call for call in calls if isinstance(call.func, (ast.Name, ast.Attribute))]
    unpassed = []
    for func, bound in functions:
        if func.name.startswith("_"):
            continue
        positional = func.args.posonlyargs + func.args.args
        defaulted = positional[len(positional) - len(func.args.defaults):]
        defaulted += [arg for arg, default in zip(func.args.kwonlyargs,
                                                  func.args.kw_defaults)
                      if default is not None]
        inside = {id(node) for node in ast.walk(func)}
        everything = {arg.arg for arg in defaulted}
        passed = set()
        if any(name_of(node) == func.name and id(node) not in inside for node in named):
            passed |= everything
        for call in calls:
            if id(call) in inside or name_of(call.func) != func.name:
                continue
            if (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords)):
                passed |= everything
            skip = 1 if bound and isinstance(call.func, ast.Attribute) else 0
            passed |= {arg.arg for arg in positional[skip:skip + len(call.args)]}
            passed |= {k.arg for k in call.keywords}
        unpassed += [f"{func.name}({arg.arg})" for arg in defaulted
                     if arg.arg not in passed
                     and f"{func.name}({arg.arg})" not in UNPASSED_OPTIONS]
    assert not unpassed, "options no caller passes: " + ", ".join(unpassed)
