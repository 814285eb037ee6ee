"""Tiny arithmetic expression grammar for user-supplied metrics and graphs.

Grammar: operators ``+ - * / ^``, functions ``sin cos tan exp log sqrt``,
parentheses, numeric literals, ``pi`` and named variables.  It is Python's
arithmetic with ``^`` written for its right-associative ``**``, so Python's
parser reads it, and a walk that refuses every other Python form compiles
the tree into closures.  Compiled expressions evaluate over any number type
the jet module understands (floats, ndarrays, jets), so custom metrics get
exact derivatives for free.  Literals are numpy floats and evaluation runs
with numpy's floating-point warnings off, so a division by zero or a log of
zero yields inf or NaN for the callers' finiteness checks to name, never an
exception or a warning.
"""

import ast
import operator
import re

import numpy as np

from . import jets
from .errors import ConfigError

_FUNCTIONS = {name: getattr(jets, name) for name in ("sin", "cos", "tan", "exp", "log", "sqrt")}
_PI = np.float64(np.pi)

# text Python reads but the grammar does not (a character outside its
# alphabet once whitespace is normalised, or Python's power operator); the
# grammar's numeric literals; and the leading zeros of a literal's integer
# part, which the grammar reads and Python's tokenizer refuses
_OUTSIDE = re.compile(r"[^A-Za-z0-9_.+\-*/^() ]|\*\*")
_LITERAL = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")


class ExpressionError(ConfigError):
    """Text outside the grammar, or a name that is not a variable."""


def _pow(a, b):
    if isinstance(b, (int, float)):
        return a ** b
    return jets.exp(b * jets.log(a))


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: _pow}


def compile_expression(text, variables):
    """Compile ``text`` into a callable taking keyword arguments.

    ``evaluate.reads`` is the frozenset of variables the expression
    references; the value depends on no other argument.
    """
    names = tuple(variables)
    normal = " ".join(text.split())
    stray = _OUTSIDE.search(normal)
    if stray:
        raise ExpressionError(f"unexpected {stray.group()!r} in expression {text!r}")
    python = _LEADING_ZEROS.sub("", normal).replace("^", "**")
    reads = set()

    def build(node):
        """The closure ``env -> value`` of ``node``; adds the names it reads to ``reads``."""
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op, left, right = _BINARY[type(node.op)], build(node.left), build(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = build(node.operand)
            return operand if isinstance(node.op, ast.UAdd) else lambda env: -operand(env)
        # a function name in parentheses starts later than its call: ``(sin)(x)``
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and node.func.col_offset == node.col_offset
                and len(node.args) == 1 and not node.keywords):
            fn, arg = _FUNCTIONS[node.func.id], build(node.args[0])
            return lambda env: fn(arg(env))
        segment = python[node.col_offset:node.end_col_offset]  # one ASCII line
        if isinstance(node, ast.Constant) and _LITERAL.fullmatch(segment):
            value = np.float64(segment)
            return lambda env: value
        if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
            if node.id == "pi":
                return lambda env: _PI
            if node.id not in names:
                raise ExpressionError(
                    f"unknown name {node.id!r}; variables here are {sorted(names)}")
            reads.add(node.id)
            return operator.itemgetter(node.id)
        raise ExpressionError(f"unexpected {segment.replace('**', '^')!r} in expression {text!r}")

    try:
        root = build(ast.parse(python, "<expression>", "eval").body)
    except (SyntaxError, RecursionError) as err:
        raise ExpressionError(  # a RecursionError has no msg
            f"cannot parse expression {text!r}: {getattr(err, 'msg', err)}") from None

    def evaluate(**env):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return root(env)

    evaluate.source = text
    evaluate.variables = names
    evaluate.reads = frozenset(reads)
    return evaluate
