"""The library keeps only what a run uses: every module-level function and
class in ``src/contactmoc`` is referenced by code in ``src/`` or ``scripts/``,
every dataclass field and every attribute a ``src/`` class sets on ``self``
is read there, and every method of a ``src/`` class is called there.

A helper, a field or a method that only the tests reach belongs in
``tests/``, reference implementations that tests compare the run path
against included.

``src/`` also reaches numpy only through its public names: the private
modules (``numpy._core``, ``numpy.core``, ``numpy.lib._*``) moved between
numpy 1.x and 2.x, and ``pyproject.toml`` promises numpy >= 1.24.

The benchmark's tracer (``perfbench/tracing.py``) wraps library functions by
name, so the ones it traces must keep their names.
"""

import ast
import builtins
import importlib.util
import os
import pathlib
import pkgutil
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "contactmoc")
SCRIPTS = os.path.join(ROOT, "scripts")
TESTS = os.path.join(ROOT, "tests")


def _parse(directory):
    return {name: ast.parse(pathlib.Path(directory, name).read_text(encoding="utf-8"))
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


def _reads(trees):
    """How often ``trees`` read each name: as an attribute load, or as a
    string constant (the name handed to ``getattr``).  A call's callee is no
    read: ``d.mean()`` does not read a field ``mean``."""
    reads = Counter()
    for tree in trees:
        nodes = list(ast.walk(tree))
        callees = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        reads.update(n.attr for n in nodes if isinstance(n, ast.Attribute)
                     and isinstance(n.ctx, ast.Load) and id(n) not in callees)
        reads.update(n.value for n in nodes
                     if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return reads


def _classes(modules):
    """``(module.Class, node, tree)`` of every class defined at module level."""
    return [(f"{filename[:-3]}.{cls.name}", cls, tree) for filename, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)]


def _unread_fields(modules, program):
    """``module.Class.field`` of every dataclass field in ``modules`` that no
    tree of ``program`` reads.  Filling a field through its constructor
    keyword is no read."""
    reads = _reads(program)
    return {f"{name}.{stmt.target.id}" for name, cls, _ in _classes(modules) if _is_dataclass(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and not reads[stmt.target.id]}


def _external_bases(cls, tree):
    """The classes outside ``tree`` that ``cls`` derives from: builtins, and
    names the module imports absolutely (``argparse.ArgumentParser``),
    through any base class defined in ``tree`` itself."""
    imports = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.partition(".")[0]
                imports[alias.asname or head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imports.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                            for alias in node.names})
    local = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = []
    for base in cls.bases:
        chain = _dotted(base)
        head, _, rest = (chain or "").partition(".")
        if head in local:
            bases += _external_bases(local[head], tree)
        elif head in imports:
            bases.append(pkgutil.resolve_name(".".join(filter(None, (imports[head], rest)))))
        elif hasattr(builtins, head):
            bases.append(getattr(builtins, head))
    return bases


def _calls(trees):
    """How often ``trees`` call each name as a method: ``x.name(...)``."""
    return Counter(n.func.attr for tree in trees for n in ast.walk(tree)
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute))


def _is_property(node):
    return any(_dotted(d) in ("property", "cached_property", "functools.cached_property")
               for d in node.decorator_list)


def _uncalled_methods(modules, program):
    """``module.Class.method`` of every non-dunder method in ``modules`` that
    no tree of ``program`` uses, a use inside the method's own body
    (recursion) not counted.  A method is used where it is called
    (``x.method(...)``; a field of the same name read elsewhere is no use),
    a property where it is read.  A method that overrides one of an
    external base class is used: the base calls it (``_Parser.error``)."""
    uses = {_reads: _reads(program), _calls: _calls(program)}
    uncalled = set()
    for name, cls, tree in _classes(modules):
        bases = _external_bases(cls, tree)
        for stmt in cls.body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            method = stmt.name
            if method.startswith("__") and method.endswith("__"):
                continue
            if any(hasattr(base, method) for base in bases):
                continue
            count = _reads if _is_property(stmt) else _calls
            if uses[count][method] <= count([stmt])[method]:
                uncalled.add(f"{name}.{method}")
    return uncalled


def _attribute_reads(trees):
    """How often ``trees`` read each attribute: as an attribute load (a
    method call's callee included), or as the literal name handed to
    ``getattr`` or ``hasattr``."""
    reads = Counter()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads[n.attr] += 1
            elif (isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("getattr", "hasattr")
                  and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)):
                reads[n.args[1].value] += 1
    return reads


def _self_attributes(cls):
    """The names the methods of ``cls`` assign on their first argument
    (``self.name = ...``)."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.args.args:
            me = stmt.args.args[0].arg
            names.update(n.attr for n in ast.walk(stmt)
                         if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                         and isinstance(n.value, ast.Name) and n.value.id == me)
    return names


def _carries(base, name):
    """Whether instances of the external class ``base`` carry ``name``: as
    a class attribute, or as one its argument-free constructor sets
    (``argparse.ArgumentParser._negative_number_matcher``)."""
    if hasattr(base, name):
        return True
    try:
        return hasattr(base(), name)
    except TypeError:
        return False


def _unread_attributes(modules, program):
    """``module.Class.attribute`` of every attribute a class in ``modules``
    sets on ``self`` that no tree of ``program`` reads.  An attribute that
    instances of an external base class already carry is used: the base
    reads it, as it calls an overridden method."""
    reads = _attribute_reads(program)
    unread = set()
    for name, cls, tree in _classes(modules):
        bases = _external_bases(cls, tree)
        unread.update(f"{name}.{attr}" for attr in _self_attributes(cls)
                      if not reads[attr] and not any(_carries(base, attr) for base in bases))
    return unread


# Names the library keeps although only the tests read them, each with the
# reason.  An entry that is no longer test-only fails the layout tests.
_TEST_ONLY = {}


def _program_and_tests():
    modules = _parse(PACKAGE)
    program = list(modules.values()) + list(_parse(SCRIPTS).values())
    return modules, program, list(_parse(TESTS).values())


def _unused(modules, trees):
    return (_unread_fields(modules, trees) | _unread_attributes(modules, trees)
            | _uncalled_methods(modules, trees))


def test_every_dataclass_field_is_read():
    """A result field that only the tests read is work for nothing in a run."""
    modules, program, _ = _program_and_tests()
    unread = _unread_fields(modules, program) - set(_TEST_ONLY)
    assert not unread, f"dataclass fields no code in src/ or scripts/ reads: {sorted(unread)}"


def test_every_self_attribute_is_read():
    """An attribute that only the tests read is state a run carries for nothing."""
    modules, program, _ = _program_and_tests()
    unread = _unread_attributes(modules, program) - set(_TEST_ONLY)
    assert not unread, f"attributes set on self that no code in src/ or scripts/ reads: {sorted(unread)}"


def test_every_method_is_called():
    """A method that only the tests call belongs in ``tests/``."""
    modules, program, _ = _program_and_tests()
    uncalled = _uncalled_methods(modules, program) - set(_TEST_ONLY)
    assert not uncalled, f"methods no code in src/ or scripts/ calls: {sorted(uncalled)}"


def test_test_only_exemptions_are_test_only():
    """Each exempt name is still in the library, unused by the program and
    used by the tests; any other exemption is stale."""
    modules, program, tests = _program_and_tests()
    test_only = _unused(modules, program) - _unused(modules, program + tests)
    assert set(_TEST_ONLY) <= test_only, sorted(set(_TEST_ONLY) - test_only)


def test_test_only_names_are_caught():
    library = (
        "import argparse\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Report:\n"
        "    used: float\n"
        "    test_only: float\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def __init__(self):\n"
        "        super().__init__()\n"
        "        self._negative_number_matcher = None\n"
        "    def error(self, message):\n"
        "        self.exit(2)\n"
        "class Line:\n"
        "    def __call__(self, x):\n"
        "        return self.run(x)\n"
        "    def run(self, x):\n"
        "        return x\n"
        "    def probe(self, x):\n"
        "        return self.probe(x - 1) if x else 0\n"
        "class Table:\n"
        "    def __init__(self, lo):\n"
        "        self.lo, self.hi = lo, lo + 1\n"
        "        self.size = self.flag = 0\n"
        "    def span(self):\n"
        "        return self.hi - self.lo\n"
        "def main(report, line, table):\n"
        "    return report.used + line.run(1) + report.probe + table.span() + hasattr(table, 'size')\n"
    )
    test = ("def test(report, line, table):\n"
            "    assert report.test_only == line.probe(2) == table.flag\n")
    modules = {"lib.py": ast.parse(library)}
    program = list(modules.values())
    assert _unread_fields(modules, program) == {"lib.Report.test_only"}
    assert _uncalled_methods(modules, program) == {"lib.Line.probe"}
    # A tuple and a chained assignment; an attribute argparse's own
    # instances carry is read by the base.
    assert _unread_attributes(modules, program) == {"lib.Table.flag"}
    assert _unused(modules, program + [ast.parse(test)]) == set()
    # A read through getattr's string, and a base class defined in the module.
    program.append(ast.parse("getattr(report, 'test_only')\ngetattr(table, 'flag')\n"))
    assert _unread_fields(modules, program) == set()
    assert _unread_attributes(modules, program) == set()
    sub = ast.parse("import argparse\nclass P(argparse.ArgumentParser):\n    pass\n"
                    "class Q(P):\n    def format_help(self):\n        return ''\n")
    assert _uncalled_methods({"sub.py": sub}, [sub]) == set()


_PRIVATE_NUMPY = re.compile(r"numpy\.((_core|core)(\.|$)|lib\._)")


def _dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def _numpy_paths(tree):
    """Every numpy path a module names: its imports, and its attribute
    chains on a name bound to numpy (``np._core.umath``), spelled from
    ``numpy``."""
    aliases, paths = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    paths.append(alias.name)
                    aliases[alias.asname or "numpy"] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            paths += [f"{node.module}.{alias.name}" for alias in node.names]
            aliases.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                            for alias in node.names})
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (chain or "").partition(".")
        if head in aliases:
            paths.append(f"{aliases[head]}.{rest}")
    return paths


def test_src_uses_only_public_numpy():
    private = sorted({f"{name}: {path}" for name, tree in _parse(PACKAGE).items()
                      for path in _numpy_paths(tree) if _PRIVATE_NUMPY.match(path)})
    assert not private, f"private numpy paths in src/: {private}"


def test_private_numpy_paths_are_caught():
    cases = {
        "import numpy as np\nnp._core.umath.clip": True,
        "import numpy\nnumpy.core.multiarray.interp": True,
        "import numpy as np\nnp.lib._function_base_impl.interp": True,
        "from numpy._core import umath": True,
        "from numpy.lib import _index_tricks_impl": True,
        "import numpy.core.multiarray as cm": True,
        "from numpy import _core as c\nc.umath": True,
        "import numpy as np\nnp.clip; np.lib.stride_tricks.sliding_window_view": False,
        "import numpy as np\nnp.core_count = 1\nnp.interp": False,
    }
    for src, private in cases.items():
        found = any(_PRIVATE_NUMPY.match(p) for p in _numpy_paths(ast.parse(src)))
        assert found == private, src


# Layer boundaries perfbench/tracing.py wraps that the program no longer has.
_STALE_TRACED = {"gas.pressure_from_invariants", "interp.cubic_clipped",
                 "moc.trace_characteristic", "quadrature.adaptive_gauss_kronrod"}


def test_benchmark_tracer_finds_its_layer_boundaries():
    """A renamed or deleted function that the benchmark's tracer wraps leaves
    its per-layer metric silently at 0; only the names already stale may be
    missing."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= _STALE_TRACED, sorted(set(tracer.missing) - _STALE_TRACED)


_PROGRAM_ERRORS = {"SolverError", "TransformError", "GasError", "BlowupError"}


def _raised_messages(tree):
    """The message of every ``raise`` of a program error in ``tree`` whose
    first argument is a string literal or an f-string, each replacement
    field written as ``{}``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func, args = node.exc.func, node.exc.args
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in _PROGRAM_ERRORS or not args:
            continue
        if isinstance(args[0], ast.Constant) and isinstance(args[0].value, str):
            yield args[0].value
        elif isinstance(args[0], ast.JoinedStr):
            yield "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in args[0].values)


def test_every_program_error_leads_with_a_code():
    """The CLI repeats a solver, transform, gas or blow-up error's leading
    token as ``code=``; only an ``internal error: ...`` goes without one."""
    from contactmoc import cli

    messages = [m for tree in _parse(PACKAGE).values() for m in _raised_messages(tree)]
    assert len(messages) >= 35
    codeless = [m for m in messages
                if not (cli._CODE_TOKEN.match(m) or m.startswith("internal error: "))]
    assert codeless == []
