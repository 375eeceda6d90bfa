"""Tiny arithmetic expression grammar for initial data and forcing.

Accepted: numbers, the first ``dim`` of x, y, z (and t for forcing), pi, e,
sin/cos/exp/sqrt/tanh/abs, +, -, *, /, ** and parentheses.  Expressions are
validated against an AST whitelist and evaluated vectorized over numpy
arrays, so configs stay reproducible without embedding a scripting runtime.
"""

from __future__ import annotations

import ast
import numpy as np
from typing import Callable

from .constitutive import _OFFDIAG


class ExpressionError(ValueError):
    pass


_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "abs": np.abs,
}

_CONSTS = {"pi": np.pi, "e": np.e}
# Every evaluation copies this namespace, so no call keeps the points it saw.
_NAMESPACE = {"__builtins__": {}, **_FUNCS, **_CONSTS}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.UAdd, ast.USub)


def _validate(node: ast.AST, names: set) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, names)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(f"operator {type(node.op).__name__} not allowed")
        _validate(node.left, names)
        _validate(node.right, names)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"unary {type(node.op).__name__} not allowed")
        _validate(node.operand, names)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ExpressionError("only sin/cos/exp/sqrt/tanh/abs calls are allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments are not allowed")
        for arg in node.args:
            _validate(arg, names)
    elif isinstance(node, ast.Name):
        if node.id not in names and node.id not in _CONSTS:
            raise ExpressionError(f"unknown name {node.id!r} (allowed: {sorted(names)})")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"constant {node.value!r} is not a number")
    else:
        raise ExpressionError(f"syntax element {type(node).__name__} not allowed")


def compile_expression(src: str, *, with_time: bool = False, dim: int = 3) -> Callable:
    """Compile to a callable of (points,) or (t, points) returning (m,) values."""
    names = set("xyz"[:dim]) | ({"t"} if with_time else set())
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {src!r}: {exc}") from exc
    _validate(tree, names)
    code = compile(tree, f"<expr {src!r}>", "eval")
    axes = [(name, a) for a, name in enumerate("xyz") if name in code.co_names]

    def evaluate(pts: np.ndarray, t: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        env = dict(_NAMESPACE, t=t)
        for name, a in axes:
            env[name] = pts[:, a] if a < pts.shape[1] else np.zeros(pts.shape[0])
        # Python scalars raise where arrays give inf or nan: 1/0, 10.0**400, (-1)**0.5.
        try:
            out = eval(code, env)
            if np.ndim(out) == 0:
                return np.full(pts.shape[0], float(out))
        except (ArithmeticError, TypeError) as exc:
            raise ExpressionError(f"evaluating {src!r} failed: {exc}") from exc
        if np.iscomplexobj(out):  # (-1)**0.5*x: an array takes the complex value silently
            raise ExpressionError(f"evaluating {src!r} failed: the value is complex")
        # A bare coordinate is a view of ``pts``; every other result is fresh.
        return out.copy() if out.base is not None else out

    if with_time:
        return lambda t, pts: evaluate(pts, t)
    return evaluate


def vector_sampler(components, *, with_time: bool = False, dim: int = 3) -> Callable:
    """Stack per-component expressions into a (m, len(components)) sampler."""
    fns = [compile_expression(c, with_time=with_time, dim=dim) for c in components]

    def sample(pts, *t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((pts.shape[0], len(fns)))
        for j, f in enumerate(fns):
            out[:, j] = f(*t, pts)
        return out
    return (lambda t, pts: sample(pts, t)) if with_time else sample


def tensor_sampler(components, dim: int) -> Callable:
    """Symmetric-matrix sampler from tensor components in row order.

    1D: [xx]; 2D: [xx, yy, xy]; 3D: [xx, yy, zz, yz, xz, xy].
    """
    expected = dim + len(_OFFDIAG[dim])
    if len(components) != expected:
        raise ExpressionError(f"stress needs {expected} component expressions "
                              f"in {dim}D, got {len(components)}")
    fns = [compile_expression(c, dim=dim) for c in components]

    def sample(pts):
        pts = np.atleast_2d(pts)
        vals = [f(pts) for f in fns]
        A = np.zeros((pts.shape[0], dim, dim))
        for i in range(dim):
            A[:, i, i] = vals[i]
        for k, (i, j) in enumerate(_OFFDIAG[dim]):
            A[:, i, j] = A[:, j, i] = vals[dim + k]
        return A
    return sample
