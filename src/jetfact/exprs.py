"""Arithmetic expression grammar for element literals.

Supports +, -, *, integer and rational literals, generator names, and
d^k(g) for the k-th jet of a generator (d(g) abbreviates d^1(g)).  A bare
`i` denotes the imaginary unit unless `i` is a declared generator.
"""

from __future__ import annotations

import re

from .errors import InputError
from .grading import GradedElement
from .scalars import I, Scalar
from ._kernels import lc_mul

__all__ = ["parse_element", "free_names", "ExprError"]


class ExprError(InputError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ExprError(f"unexpected character at {text[pos:]!r}")
        if m.group("num"):
            tokens.append(("num", m.group("num")))
        elif m.group("name"):
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, tokens, gens, wmax):
        self.tokens = tokens
        self.pos = 0
        self.gens = set(gens)
        self.wmax = wmax

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind and tok[0] != kind:
            raise ExprError(f"expected {kind}, found {tok[1]!r}")
        if value and tok[1] != value:
            raise ExprError(f"expected {value!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> GradedElement:
        out = self.expr()
        if self.peek()[0] != "end":
            raise ExprError(f"trailing input at {self.peek()[1]!r}")
        return out

    def expr(self) -> GradedElement:
        out = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> GradedElement:
        out = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            rhs = self.factor()
            out = GradedElement._make(lc_mul(out.data, rhs.data, self.wmax), self.wmax)
        return out

    def factor(self) -> GradedElement:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.factor()
        return self.atom()

    def atom(self) -> GradedElement:
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return GradedElement.one(self.wmax).scale(Scalar(value))
        if kind == "op" and value == "(":
            self.take()
            out = self.expr()
            self.take("op", ")")
            return out
        if kind == "name":
            self.take()
            if value == "d" and "d" not in self.gens and self.peek()[1] in ("^", "("):
                return self.jet()
            if value == "i" and "i" not in self.gens:
                return GradedElement.one(self.wmax).scale(I)
            if value not in self.gens:
                raise ExprError(f"unknown generator {value!r}")
            return GradedElement.generator(value, 0, self.wmax)
        raise ExprError(f"unexpected token {value!r}")

    def jet(self) -> GradedElement:
        order = 1
        if self.peek() == ("op", "^"):
            self.take()
            tok = self.take("num")[1]
            if "/" in tok:
                raise ExprError("jet order must be an integer")
            order = int(tok)
        self.take("op", "(")
        name = self.take("name")[1]
        if name not in self.gens:
            raise ExprError(f"unknown generator {name!r}")
        self.take("op", ")")
        return GradedElement.generator(name, order, self.wmax)


def parse_element(text: str, gens, wmax: int) -> GradedElement:
    """Parse an element literal over the given generators, truncated at wmax."""
    return _Parser(_tokenize(text), gens, wmax).parse()


def free_names(text: str) -> list:
    """Generator-like names appearing in an expression, in sorted order.

    Used by the CLI to infer the generator list when it is not given.  The
    jet operator d and the imaginary unit i are not treated as names.
    """
    names = set()
    tokens = _tokenize(text)
    for idx, (kind, value) in enumerate(tokens):
        if kind != "name":
            continue
        if value == "d" and tokens[idx + 1][1] in ("^", "("):
            continue
        if value == "i":
            continue
        names.add(value)
    return sorted(names)
