"""Test helper: the recursive expression walker.

``SmoothExpression`` evaluates each derivative tree through a flat program
over its distinct subtrees.  This reference keeps the walker the library
used before that: it visits every node of the tree, and each ``num`` leaf
allocates its own value.  Both must agree bit for bit.
"""

import numpy as np

from contactmoc.expressions import _FUNCS, ExpressionError


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
