"""Tiny closed-form expression grammar for boundary and profile data.

Supports polynomials, sin, cos, exp of a single variable, numeric literals
and pi, combined with + - * / ** (constant exponents) and unary minus.
Expressions are parsed once into a tuple tree that can be differentiated
symbolically, so third derivatives of wall curves are exact rather than
finite-differenced.
"""

from __future__ import annotations

import ast
import math

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


def evaluate(expr, x):
    """Evaluate an expression tree at ``x`` (scalar or ndarray)."""
    x = np.asarray(x, dtype=float)
    tag = expr[0]
    if tag == "num":
        return np.broadcast_to(np.float64(expr[1]), x.shape).copy() if x.ndim else np.float64(expr[1])
    if tag == "var":
        return x
    if tag == "neg":
        return -evaluate(expr[1], x)
    if tag == "add":
        return evaluate(expr[1], x) + evaluate(expr[2], x)
    if tag == "sub":
        return evaluate(expr[1], x) - evaluate(expr[2], x)
    if tag == "mul":
        return evaluate(expr[1], x) * evaluate(expr[2], x)
    if tag == "div":
        return evaluate(expr[1], x) / evaluate(expr[2], x)
    if tag == "pow":
        return evaluate(expr[1], x) ** expr[2]
    if tag in _FUNCS:
        return _FUNCS[tag](evaluate(expr[1], x))
    raise ExpressionError(f"cannot evaluate node {tag!r}")


class SmoothExpression:
    """Expression with cached derivative trees up to third order."""

    def __init__(self, text, var="x"):
        self.text = text
        self.var = var
        tree = parse_expression(text, var)
        self._trees = [tree]
        for _ in range(3):
            self._trees.append(differentiate(self._trees[-1]))

    def __call__(self, x, order=0):
        if not 0 <= order <= 3:
            raise ExpressionError("derivative order must be 0..3")
        return evaluate(self._trees[order], x)
