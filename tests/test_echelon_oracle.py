"""The pivots of a presentation and the exact ranks, each a dict of
pivot rows that scalars.reduce_row reduces against, checked against sympy
as an independent oracle.

Jet quotients: the weight-d dimension is the number of standard monomials
of weight d for a Groebner basis of the relation jets (the ideal is
weight-homogeneous, so any monomial order gives the same count), and a
normal form differs from its input by an ideal element.  Exact ranks are
compared with sympy's DomainMatrix rank over the Gaussian rationals.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from jetfact.factalg import _exact_rank  # noqa: E402
from jetfact.grading import GradedElement  # noqa: E402
from jetfact.jetalg import AlgebraPresentation  # noqa: E402
from jetfact.scalars import Scalar  # noqa: E402

QQ_I = sympy.QQ_I

# (generators, relations for jetfact, the same relations over the symbols
# g0, g1, ... standing for the jets g^(0), g^(1), ..., truncation bound)
PRESENTATIONS = [
    (["x", "y"], ["x*y"], ["x0*y0"], 5),
    (["x", "y"], ["(1+2*i)*x*x + y*y"], ["(1+2*I)*x0**2 + y0**2"], 5),
    (["x", "y"], ["x*d(y) + y*d(x)"], ["x0*y1 + y0*x1"], 5),
    (["x", "y", "z"], ["x*y", "y*z"], ["x0*y0", "y0*z0"], 4),
    (["x"], ["x*x"], ["x0**2"], 6),
]
IDS = ["x,y|xy", "x,y|(1+2i)xx+yy", "x,y|xdy+ydx", "x,y,z|xy;yz", "x|xx"]


class Oracle:
    """Polynomial ring on the jet variables of weight at most W, and a
    Groebner basis of the relation jets that fit under the bound."""

    def __init__(self, gens, sym_relations, W):
        self.W = W
        self.vars = [(g, m) for g in gens for m in range(W)]
        self.symbols = [sympy.Symbol(f"{g}{m}") for g, m in self.vars]
        self.weights = [m + 1 for _, m in self.vars]
        self.index = {v: k for k, v in enumerate(self.vars)}
        names = dict(zip((str(s) for s in self.symbols), self.symbols))
        jets = []
        for text in sym_relations:
            f = sympy.sympify(text, locals=names)
            for _ in range(W + 1 - self.weight_of(f)):
                jets.append(f)
                f = self.derive(f)
        self.G = sympy.groebner(jets, *self.symbols, order="grevlex", domain=QQ_I)
        self.leads = [p.monoms(order="grevlex")[0] for p in self.G.polys]

    def derive(self, f):
        # The derivation sends g^(m) to g^(m+1).
        out = 0
        for k, (g, m) in enumerate(self.vars):
            if m + 1 < self.W:
                out += sympy.diff(f, self.symbols[k]) * self.symbols[self.index[(g, m + 1)]]
        return sympy.expand(out)

    def weight_of(self, f):
        return max(
            sum(e * w for e, w in zip(mono, self.weights))
            for mono in sympy.Poly(f, *self.symbols).monoms()
        )

    def monomials(self, delta, k=0):
        """Exponent vectors of weight delta in the variables from k on."""
        if k == len(self.vars):
            if delta == 0:
                yield ()
            return
        w = self.weights[k]
        for e in range(delta // w + 1):
            for rest in self.monomials(delta - e * w, k + 1):
                yield (e,) + rest

    def standard_count(self, delta):
        return sum(
            1
            for mono in self.monomials(delta)
            if not any(all(e >= l for e, l in zip(mono, lead)) for lead in self.leads)
        )

    def to_sympy(self, elem: GradedElement):
        rep = {}
        for mono, c in elem.data.items():
            exps = [0] * len(self.vars)
            for factor in mono:
                exps[self.index[factor]] += 1
            rep[tuple(exps)] = _sympy_scalar(c)
        return sympy.Poly.from_dict(rep, *self.symbols, domain=QQ_I).as_expr()

    def from_exponents(self, exps, coeff, wmax):
        mono = [self.vars[k] for k, e in enumerate(exps) for _ in range(e)]
        return GradedElement({tuple(mono): coeff}, wmax)


def _gaussian(rng):
    """A nonzero Gaussian rational."""
    re = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
    return Scalar(re, rng.randint(-2, 2))


def _sympy_scalar(c: Scalar):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


@pytest.mark.parametrize("gens,relations,sym_relations,W", PRESENTATIONS, ids=IDS)
def test_dims_count_groebner_standard_monomials(gens, relations, sym_relations, W):
    P = AlgebraPresentation(gens, relations, W)
    oracle = Oracle(gens, sym_relations, W)
    assert P.dims() == [oracle.standard_count(d) for d in range(W + 1)]


@pytest.mark.parametrize("gens,relations,sym_relations,W", PRESENTATIONS, ids=IDS)
def test_normal_forms_agree_with_groebner_ideal(gens, relations, sym_relations, W):
    P = AlgebraPresentation(gens, relations, W)
    free = AlgebraPresentation(gens, [], W)
    oracle = Oracle(gens, sym_relations, W)
    basis = set(P.basis_monomials())
    rng = random.Random(len(gens) * 100 + W)
    for _ in range(6):
        # A free element with a few terms of mixed weight.
        f = free.zero()
        for _ in range(rng.randint(1, 4)):
            exps = rng.choice(list(oracle.monomials(rng.randint(0, W))))
            f = f + oracle.from_exponents(exps, _gaussian(rng), W)
        nf = P.normal_form(f)
        assert set(nf.data) <= basis
        assert oracle.G.contains(oracle.to_sympy(f - nf))
        assert (not nf) == oracle.G.contains(oracle.to_sympy(f))

        # An ideal element: monomials times derivatives of the relations.
        g = free.zero()
        for _ in range(2):
            rel = free.derive(rng.choice(P.relations), times=rng.randint(0, 1))
            exps = rng.choice(list(oracle.monomials(rng.randint(0, 2))))
            g = g + free.multiply(oracle.from_exponents(exps, _gaussian(rng), W), rel)
        assert oracle.G.contains(oracle.to_sympy(g))
        assert not P.normal_form(g)


def test_oracle_sees_a_dropped_pivot():
    # No check harness sees this mutant: the quotient stays consistent,
    # only its weight-2 dimension grows by the freed monomial x0*y0.
    gens, relations, sym_relations, W = PRESENTATIONS[0]
    P = AlgebraPresentation(gens, relations, W)
    del P._pivots[P._rank_maps()[0][(("x", 0), ("y", 0))]]
    expected = [Oracle(gens, sym_relations, W).standard_count(d) for d in range(W + 1)]
    assert expected == [1, 2, 4, 7, 12, 19]
    assert P.dims() == [1, 2, 5, 7, 12, 19]


@pytest.mark.parametrize("seed", range(4))
def test_exact_rank_matches_domain_matrix(seed):
    rng = random.Random(seed)
    ncols = rng.randint(4, 9)
    rows = []
    for _ in range(rng.randint(3, 8)):
        cols = rng.sample(range(ncols), rng.randint(1, 3))
        rows.append({c: _gaussian(rng) for c in cols if rng.random() < 0.9})
    # Planted dependent rows: combinations of two earlier rows.
    for _ in range(3):
        r1, r2 = rng.sample(rows, 2)
        a, b = _gaussian(rng), _gaussian(rng)
        row = {c: a * v for c, v in r1.items()}
        for c, v in r2.items():
            row[c] = row.get(c, Scalar(0)) + b * v
        rows.insert(rng.randint(0, len(rows)), {c: v for c, v in row.items() if v})

    M = sympy.Matrix(
        [[_sympy_scalar(row.get(c, Scalar(0))) for c in range(ncols)] for row in rows]
    )
    expected = DomainMatrix.from_Matrix(M).convert_to(QQ_I).rank()
    assert _exact_rank(rows) == expected
    assert _exact_rank(reversed(rows)) == expected
