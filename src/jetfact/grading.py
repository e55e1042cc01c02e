"""Weight-graded elements over jet monomials.

A jet monomial is a finite multiset of (generator, order) factors, stored
as a tuple in canonical factor order, so that equality is syntactic.  Its
weight is the sum of (order + 1) over factors.  The format (the order
factor_key, the weight mono_weight) is defined in _kernels alone;
normalize_monomial puts outside input into it.

A GradedElement is a finite linear combination of jet monomials with exact
scalar coefficients, together with a truncation bound: weights above the
bound are unrepresentable and silently discarded by every constructor and
operation.  The truncation bound is the computable stand-in for working in
a completed product of weight spaces.
"""

from __future__ import annotations

from .scalars import ONE, Scalar
from ._kernels import factor_key, lc_add, lc_add_scaled, lc_scale, mono_weight

__all__ = [
    "GradedElement",
    "format_monomial",
    "format_element",
]


def normalize_monomial(factors) -> tuple:
    """Sort factor pairs into canonical order and validate them."""
    out = []
    for g, m in factors:
        if not isinstance(g, str):
            raise TypeError(f"generator name must be a string, got {g!r}")
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"jet order must be a non-negative integer, got {m!r}")
        out.append((g, m))
    out.sort(key=factor_key)
    return tuple(out)


class GradedElement:
    """Immutable sparse linear combination of jet monomials.

    data maps monomials to nonzero Scalars; wmax is the truncation bound.
    Two elements are equal when their normalized mappings are equal; wmax
    takes no part in equality or hashing.  The bound only records which
    weights were kept, so elements with the same terms are the same
    polynomial whatever their bounds.  The checks compare elements built
    under one bound, and their reports rely on this equality.  No code
    writes to data after wrapping it, so the hash is computed on first use
    and kept.
    """

    __slots__ = ("data", "wmax", "_hash")

    def __init__(self, data, wmax: int):
        if wmax < 0:
            raise ValueError("truncation bound must be non-negative")
        clean = {}
        for mono, coeff in data.items():
            coeff = Scalar.coerce(coeff)
            if not coeff:
                continue
            mono = normalize_monomial(mono)
            if mono_weight(mono) > wmax:
                continue
            lc_add_scaled(clean, ONE, {mono: coeff})
        self.data = clean
        self.wmax = wmax

    @classmethod
    def _make(cls, data: dict, wmax: int) -> "GradedElement":
        """Wrap an already-normalized kernel dict without re-validating."""
        self = object.__new__(cls)
        self.data = data
        self.wmax = wmax
        return self

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, wmax: int) -> "GradedElement":
        return cls._make({}, wmax)

    @classmethod
    def one(cls, wmax: int) -> "GradedElement":
        return cls._make({(): ONE}, wmax)

    @classmethod
    def generator(cls, name: str, order: int, wmax: int) -> "GradedElement":
        return cls({((name, order),): ONE}, wmax)

    # -- linear structure ------------------------------------------------------

    def _check_compatible(self, other: "GradedElement"):
        if self.wmax != other.wmax:
            raise ValueError(
                f"mismatched truncation bounds: {self.wmax} vs {other.wmax}"
            )

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._check_compatible(other)
        return GradedElement._make(lc_add(self.data, other.data), self.wmax)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return self.scale(Scalar(-1))

    def scale(self, coeff) -> "GradedElement":
        coeff = Scalar.coerce(coeff)
        return GradedElement._make(lc_scale(self.data, coeff), self.wmax)

    # -- structure queries -----------------------------------------------------

    def weights(self) -> list:
        return sorted({mono_weight(m) for m in self.data})

    def is_homogeneous(self) -> bool:
        return len(self.weights()) <= 1

    def weight(self):
        """The weight of a homogeneous nonzero element."""
        ws = self.weights()
        if len(ws) != 1:
            raise ValueError("element is zero or not homogeneous")
        return ws[0]

    def generators(self) -> set:
        return {g for mono in self.data for g, _ in mono}

    def coefficient(self, factors) -> Scalar:
        mono = normalize_monomial(factors)
        return self.data.get(mono, Scalar(0))

    def terms(self):
        """Deterministic (monomial, coefficient) iteration, weight-major."""
        return sorted(self.data.items(), key=lambda kv: (mono_weight(kv[0]), kv[0]))

    # -- comparisons -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.data.items()))
            return h

    def __bool__(self):
        return bool(self.data)

    def __repr__(self):
        return f"<GradedElement {format_element(self)} (W={self.wmax})>"

    def __str__(self):
        return format_element(self)


def format_monomial(mono) -> str:
    if not mono:
        return "1"
    return "*".join(f"{g}{m}" for g, m in mono)


def format_element(elem: GradedElement) -> str:
    if not elem.data:
        return "0"
    parts = []
    for mono, coeff in elem.terms():
        body = format_monomial(mono)
        if coeff == ONE and mono:
            text = body
        elif coeff == Scalar(-1) and mono:
            text = f"-{body}"
        else:
            cs = str(coeff)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            text = cs if not mono else f"{cs}*{body}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
