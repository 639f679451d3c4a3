"""The library keeps only what a run uses: every module-level function and
class in ``src/contactmoc`` is referenced by code in ``src/`` or ``scripts/``,
and every dataclass field is read somewhere in ``src/``, ``scripts/`` or
``tests/``.

A helper that only the tests call belongs in ``tests/``, reference
implementations that tests compare the run path against included.
"""

import ast
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "contactmoc")
SCRIPTS = os.path.join(ROOT, "scripts")
TESTS = os.path.join(ROOT, "tests")


def _parse(directory):
    return {name: ast.parse(open(os.path.join(directory, name), encoding="utf-8").read())
            for name in sorted(os.listdir(directory)) if name.endswith(".py")}


def _uses(tree, module):
    """The module-level definitions that code in ``tree`` (part of the
    module ``module``) uses, as ``module.name`` keys: a bare name read in
    ``module``, a name imported with ``from``, or an attribute read off a
    module by its name (``gas.theta``).  An attribute that only shares a
    definition's name (``line.dtheta_dp`` against ``gas.dtheta_dp``) is no
    use."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[f"{module}.{node.id}"] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            uses[f"{node.value.id}.{node.attr}"] += 1
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.rpartition(".")[2]
            uses.update(f"{source}.{alias.name}" for alias in node.names)
    return uses


def test_every_library_definition_is_used_outside_the_tests():
    modules = _parse(PACKAGE)
    trees = [(tree, name[:-3]) for name, tree in modules.items()]
    trees += [(tree, name[:-3]) for name, tree in _parse(SCRIPTS).items()]
    reads = sum((_uses(tree, module) for tree, module in trees), Counter())
    defs = {f"{filename[:-3]}.{node.name}": node for filename, tree in modules.items()
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own = {q: _uses(node, q.partition(".")[0]) for q, node in defs.items()}
    # A read from inside a definition's own body (recursion) or from an
    # unused definition (a helper only it calls) is no use: drop those reads
    # until no further definition falls unused.
    unused = set()
    while True:
        live = reads - sum((own[q] for q in unused), Counter())
        found = {q for q in defs if live[q] - (q not in unused) * own[q][q] <= 0}
        if found == unused:
            break
        unused = found
    assert not unused, f"library definitions no code in src/ or scripts/ uses: {sorted(unused)}"


def _is_dataclass(node):
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)


def test_every_dataclass_field_is_read():
    """A result field that no code reads is work for nothing.  A read is an
    attribute load or a string constant (the name handed to ``getattr``);
    filling a field through its constructor keyword is not a read, and
    neither is a method call that shares the field's name (``d.mean()``
    does not read a field ``mean``)."""
    modules = _parse(PACKAGE)
    trees = list(modules.values()) + list(_parse(SCRIPTS).values()) + list(_parse(TESTS).values())
    called = {id(node.func) for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and id(node) not in called}
    reads |= {node.value for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = sorted(f"{filename[:-3]}.{cls.name}.{stmt.target.id}"
                    for filename, tree in modules.items() for cls in tree.body
                    if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    and stmt.target.id not in reads)
    assert not unread, f"dataclass fields no code reads: {unread}"
