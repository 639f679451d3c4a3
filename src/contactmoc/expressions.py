"""Tiny closed-form expression grammar for boundary and profile data.

Supports polynomials, sin, cos, exp of a single variable, numeric literals
and pi, combined with + - * / ** (constant exponents) and unary minus.
Expressions are parsed once into a tuple tree that can be differentiated
symbolically, so third derivatives of wall curves are exact rather than
finite-differenced.  Each derivative tree is evaluated through a flat
program that computes each of its distinct subtrees once.
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np


class ExpressionError(ValueError):
    """Malformed or out-of-grammar expression text."""


_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def parse_expression(text, var="x"):
    """Parse ``text`` into an expression tree with ``var`` as the variable."""
    try:
        node = ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from None
    return _convert(node, var, text)


def _convert(node, var, text):
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric literal in {text!r}")
        return ("num", float(node.value))
    if isinstance(node, ast.Name):
        if node.id == var:
            return ("var",)
        if node.id == "pi":
            return ("num", math.pi)
        raise ExpressionError(f"unknown name {node.id!r} in {text!r} (variable is {var!r})")
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return ("neg", _convert(node.operand, var, text))
        if isinstance(node.op, ast.UAdd):
            return _convert(node.operand, var, text)
        raise ExpressionError(f"unsupported unary operator in {text!r}")
    if isinstance(node, ast.BinOp):
        lhs = _convert(node.left, var, text)
        rhs = _convert(node.right, var, text)
        if isinstance(node.op, ast.Add):
            return ("add", lhs, rhs)
        if isinstance(node.op, ast.Sub):
            return ("sub", lhs, rhs)
        if isinstance(node.op, ast.Mult):
            return ("mul", lhs, rhs)
        if isinstance(node.op, ast.Div):
            return ("div", lhs, rhs)
        if isinstance(node.op, ast.Pow):
            if rhs[0] != "num":
                raise ExpressionError(f"exponent must be a constant in {text!r}")
            return ("pow", lhs, rhs[1])
        raise ExpressionError(f"unsupported operator in {text!r}")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ExpressionError(f"unsupported function call in {text!r}")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{node.func.id} takes one positional argument in {text!r}")
        return (node.func.id, _convert(node.args[0], var, text))
    raise ExpressionError(f"unsupported syntax in {text!r}")


def differentiate(expr):
    """Return the expression tree of d(expr)/d(var)."""
    tag = expr[0]
    if tag == "num":
        return ("num", 0.0)
    if tag == "var":
        return ("num", 1.0)
    if tag == "neg":
        return _neg(differentiate(expr[1]))
    if tag == "add":
        return _add(differentiate(expr[1]), differentiate(expr[2]))
    if tag == "sub":
        return _sub(differentiate(expr[1]), differentiate(expr[2]))
    if tag == "mul":
        f, g = expr[1], expr[2]
        return _add(_mul(differentiate(f), g), _mul(f, differentiate(g)))
    if tag == "div":
        f, g = expr[1], expr[2]
        num = _sub(_mul(differentiate(f), g), _mul(f, differentiate(g)))
        return ("div", num, ("pow", g, 2.0))
    if tag == "pow":
        f, c = expr[1], expr[2]
        if c == 0.0:
            return ("num", 0.0)
        return _mul(_mul(("num", c), ("pow", f, c - 1.0)), differentiate(f))
    if tag == "sin":
        return _mul(("cos", expr[1]), differentiate(expr[1]))
    if tag == "cos":
        return _neg(_mul(("sin", expr[1]), differentiate(expr[1])))
    if tag == "exp":
        return _mul(expr, differentiate(expr[1]))
    raise ExpressionError(f"cannot differentiate node {tag!r}")


def _is_num(e, v=None):
    return e[0] == "num" and (v is None or e[1] == v)


def _neg(e):
    if _is_num(e):
        return ("num", -e[1])
    return ("neg", e)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return ("num", a[1] + b[1])
    return ("add", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return ("num", a[1] - b[1])
    return ("sub", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ("num", 0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return ("num", a[1] * b[1])
    return ("mul", a, b)


def _number(x, c):
    """A ``num`` node at x: a fresh array of x's shape, or the ``np.float64``
    itself for a 0-d x."""
    return np.full(x.shape, c) if x.ndim else c


_OPS = {"num": _number, "neg": operator.neg, "add": operator.add, "sub": operator.sub,
        "mul": operator.mul, "div": operator.truediv, "pow": operator.pow, **_FUNCS}


class _Program:
    """An expression tree compiled into a flat program over its distinct
    subtrees.

    Hash-consing gives structurally equal subtrees one node, emitted as one
    operation; constants are keyed on their bits, so 0.0 and -0.0 stay
    apart.  The slots start with x and the constants (each number as an
    ``np.float64``, each exponent as the tree's float), then hold the
    operations' results in post order.  Each operation makes the numpy call
    a walk of the tree makes at that node, on the same kinds of operands, so
    the values are those of the walk, bit for bit.  A ``num`` operand is
    made for its reader alone, after the reader's other operands, and every
    value is dropped after its last reader, so few arrays are alive at once.
    """

    def __init__(self, tree):
        ids, keys, seen = {}, [], {}  # structural key <-> node id; id(subtree) -> node id
        const_slots, self._constants = {}, []

        def node(key):
            if key not in ids:
                ids[key] = len(keys)
                keys.append(key)
            return ids[key]

        def const(value):
            bits = (type(value), np.float64(value).tobytes())
            if bits not in const_slots:
                const_slots[bits] = 1 + len(self._constants)
                self._constants.append(value)
            return const_slots[bits]

        def visit(e):
            # Derivative trees reuse subtree objects: each is visited once.
            if id(e) not in seen:
                tag = e[0]
                if tag == "num":
                    seen[id(e)] = node((tag, const(np.float64(e[1]))))
                elif tag == "pow":
                    seen[id(e)] = node((tag, visit(e[1]), const(e[2])))
                else:
                    seen[id(e)] = node((tag,) + tuple(visit(c) for c in e[1:]))
            return seen[id(e)]

        root = visit(tree)
        first = 1 + len(self._constants)  # the slot of the first operation
        steps, slots = [], {}

        def emit(i):
            tag = keys[i][0]
            if tag == "var":
                return 0
            if tag == "num":
                steps.append((_number, 0, keys[i][1]))
                return first + len(steps) - 1
            if i not in slots:
                if tag == "pow":
                    a, b = emit(keys[i][1]), keys[i][2]
                else:
                    args = keys[i][1:]
                    done = {j: emit(j) for j in sorted(args, key=lambda j: keys[j][0] == "num")}
                    a, b = done[args[0]], done[args[-1]] if len(args) > 1 else None
                steps.append((_OPS[tag], a, b))
                slots[i] = first + len(steps) - 1
            return slots[i]

        self._root = emit(root)
        del visit, emit  # the recursive closures are reference cycles: free them now
        last_read = {s: k for k, (_, a, b) in enumerate(steps) for s in (a, b)}
        self._steps = [(fn, a, b, tuple(s for s in {a, b} if s is not None and last_read[s] == k))
                       for k, (fn, a, b) in enumerate(steps)]

    def __call__(self, x):
        vals = [np.asarray(x, dtype=float), *self._constants]
        for fn, a, b, dead in self._steps:
            vals.append(fn(vals[a]) if b is None else fn(vals[a], vals[b]))
            for i in dead:
                vals[i] = None
        return vals[self._root]


class SmoothExpression:
    """Expression with cached derivative trees up to third order, each
    compiled into a ``_Program`` on its first evaluation."""

    def __init__(self, text, var="x"):
        self._trees = [parse_expression(text, var)]
        for _ in range(3):
            self._trees.append(differentiate(self._trees[-1]))
        self._programs = [None] * 4

    def __call__(self, x, order=0):
        if not 0 <= order <= 3:
            raise ExpressionError("derivative order must be 0..3")
        program = self._programs[order]
        if program is None:
            program = self._programs[order] = _Program(self._trees[order])
        return program(x)
