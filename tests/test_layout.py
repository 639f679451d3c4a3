"""The library keeps only what a run uses: every module-level function and
class in ``src/contactmoc`` is referenced by code in ``src/`` or ``scripts/``,
and every dataclass field is read somewhere in ``src/``, ``scripts/`` or
``tests/``.

A helper that only the tests call belongs in ``tests/``, reference
implementations that tests compare the run path against included.

``src/`` also reaches numpy only through its public names: the private
modules (``numpy._core``, ``numpy.core``, ``numpy.lib._*``) moved between
numpy 1.x and 2.x, and ``pyproject.toml`` promises numpy >= 1.24.

The benchmark's tracer (``perfbench/tracing.py``) wraps library functions by
name, so the ones it traces must keep their names.
"""

import ast
import importlib.util
import os
import pathlib
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
