"""Tiny arithmetic expression grammar for user-supplied metrics and graphs.

Grammar: operators ``+ - * / ^``, functions ``sin cos tan exp log sqrt``,
parentheses, numeric literals, and named variables.  Compiled expressions
evaluate over any number type the jet module understands (floats, ndarrays,
jets), so custom metrics get exact derivatives for free.  Literals are numpy
floats and evaluation runs with numpy's floating-point warnings off, so a
division by zero or a log of zero yields inf or NaN for the callers' finiteness
checks to name, never an exception or a warning.
"""

import re

import numpy as np

from . import jets

_FUNCTIONS = {
    "sin": jets.sin, "cos": jets.cos, "tan": jets.tan,
    "exp": jets.exp, "log": jets.log, "sqrt": jets.sqrt,
}

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_]\w*)|(.))")


class ExpressionError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("num", np.float64(m.group(0))))
        elif name is not None:
            tokens.append(("name", name))
        elif sym in "+-*/^()":
            tokens.append((sym, sym))
        elif sym.strip():
            raise ExpressionError(f"unexpected character {sym!r} in expression")
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent; ^ binds tightest and is right-associative."""

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.sum_()
        if self.peek() != "end":
            raise ExpressionError(f"trailing input near {self.tokens[self.pos][1]!r}")
        return node

    def sum_(self):
        node = self.product()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.product()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def product(self):
        node = self.unary()
        while self.peek() in "*/":
            op = self.take()[0]
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def unary(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return ("pow", base, self.unary())
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return ("num", value)
        if kind == "name":
            if value in _FUNCTIONS:
                self.take("(")
                arg = self.sum_()
                self.take(")")
                return ("call", value, arg)
            if value == "pi":
                return ("num", np.float64(np.pi))
            if value not in self.variables:
                raise ExpressionError(
                    f"unknown name {value!r}; variables here are {sorted(self.variables)}")
            return ("var", value)
        if kind == "(":
            node = self.sum_()
            self.take(")")
            return node
        raise ExpressionError(f"unexpected token {value!r}")


def _evaluate(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_evaluate(node[1], env)
    if op == "call":
        return _FUNCTIONS[node[1]](_evaluate(node[2], env))
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "pow":
        if isinstance(b, (int, float)):
            return a ** b
        return jets.exp(b * jets.log(a))
    raise ExpressionError(f"bad node {op!r}")


def _reads(node):
    if node[0] == "var":
        return {node[1]}
    return set().union(*(_reads(arg) for arg in node[1:] if isinstance(arg, tuple)))


def compile_expression(text, variables):
    """Compile ``text`` into a callable taking keyword arguments.

    ``evaluate.reads`` is the frozenset of variables the expression
    references; the value depends on no other argument.
    """
    names = tuple(variables)
    ast = _Parser(_tokenize(text), set(names)).parse()

    def evaluate(**env):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _evaluate(ast, env)

    evaluate.source = text
    evaluate.variables = names
    evaluate.reads = frozenset(_reads(ast))
    return evaluate
