"""Finitely generated commutative differential algebras of jets.

A presentation lists generator names, relation elements, and a truncation
bound.  The free object on generators x, y, ... has one variable per
(generator, order) pair; the derivation bumps orders by one and extends by
the Leibniz rule, and the weight of a monomial is the sum of (order + 1)
over its factors.

Quotients are handled by saturating the differential ideal degree by
degree up to the truncation bound: each relation jet is shifted by every
monomial that keeps some of its terms in range (each row is the fitting
terms with the monomial multiplied in, no coefficient arithmetic) and the
resulting span is put in row-echelon form under a fixed monomial order,
weight first, then tuple order.  The build runs on integers.  One pass
enumerates the free monomials of each weight and packs each into an int,
a bit field per variable, so that a shift adds two ints; a second pass
ranks them in the monomial order, and the rows are reduced on ranks, in
natural int order.  The echelon is one dict, {lead rank: pivot row}, and
it stays on ranks: the weight bases read the lead ranks through a list of
each free monomial's rank, and a later reduction translates its monomials
to ranks and the remainder back, through two maps built when the first
reduction needs them.  The rows are not reduced against each other, yet
normal forms are canonical: the set of leading monomials and the
remainder of an element after full reduction depend only on the span,
not on the echelon basis chosen for it.  Pivot rows are kept unscaled,
each with its lead coefficient in the row.  Every reduction is
scalars.reduce_row, which divides once per step, by the lead it cancels,
only deletes the key of a one-term pivot row, and returns a row that
meets no pivot as it is.  The one-term pivots are the monomials of the
ideal.  The build keeps their ranks as a set and drops a term at one of
them as its row is formed, as reduction would; a row that then meets no
pivot is stored as built, and only the rest are reduced.

The truncated model of a presentation F / I is F / (I + F_{>W}), the
jets of the germ at the origin truncated at weight W.  Its total
dimension is exact for every relation.  When the relation jets are
weight-homogeneous (relations of the degree-zero algebra always are) the
quotient is graded and dims() is its weight split.  Otherwise the split
of dims() by weight is not an invariant: it follows the leading
monomials, and it can change with W while the total does not.

The normal form is linear, so the product and the derivation are linear
maps on monomials.  Each presentation holds them as two lazily filled
tables on monomials (the reduced product of a pair, the reduced
derivative of one), and multiply and derive are sums over table rows.
Other layers reach the product table only through the public pair
check(elem) and product_rows(a, b) on kernel dicts, checking each state once.
A monomial's normal form starts from the shared ONE, so every row of a
free presentation's product table is {m: ONE}.  Every row sum is made by
_kernels.lc_add_scaled, which skips each multiplication by ONE: a product
on a free presentation makes one Scalar multiplication per pair of
terms, and none where a coefficient is ONE, as on basis states.  The
translation tower T^k a / k! of an element and the flow e^{zT} q^{L0}
that moves disk sections are summed in the same way from per-monomial
towers built on the derivative table.

Presentations are immutable after construction.  The internal caches
(free monomials and their ranks, weight bases, the coordinate index, the
monomial-rank maps, the product and derivative tables, the per-monomial
towers) are idempotent, so concurrent readers at worst recompute a value;
no synchronization is required.
"""

from __future__ import annotations

from itertools import chain
from math import factorial

from .errors import InputError
from .exprs import IDENTIFIER, parse_element
from .grading import GradedElement, format_element
from .scalars import ONE, Scalar, reduce_row
from ._kernels import lc_add_scaled, lc_derive, lc_scale, mono_mul, mono_weight

__all__ = [
    "AlgebraPresentation",
    "AlgebraHom",
    "LiftError",
    "lift_hom",
]


def _powers(s: Scalar, n: int) -> list:
    """[s^0, s^1, ..., s^n]."""
    out = [ONE]
    for _ in range(n):
        out.append(out[-1] * s)
    return out


class AlgebraPresentation:
    """Generators, relations, and truncation bound of a jet algebra."""

    def __init__(self, generators, relations=(), max_weight: int = 6):
        generators = tuple(generators)
        for g in generators:
            if not isinstance(g, str) or not IDENTIFIER.fullmatch(g):
                raise InputError(f"generator name {g!r} is not an identifier")
        if len(set(generators)) != len(generators):
            raise InputError("generator names must be distinct")
        if max_weight < 0:
            raise InputError("max_weight must be non-negative")
        self.generators = generators
        self._generator_set = frozenset(generators)
        self.wmax = max_weight
        rels = []
        for r in relations:
            if isinstance(r, str):
                r = parse_element(r, generators, max_weight)
            if r.wmax != max_weight:
                raise InputError(
                    f"relation truncation {r.wmax} does not match presentation {max_weight}"
                )
            if not r.generators() <= self._generator_set:
                raise InputError("relation uses undeclared generators")
            if r:
                rels.append(r)
        self.relations = tuple(rels)
        self._free = None  # free monomials by weight, filled by _enumerate
        self._basis_cache = {}
        self._index = None
        self._products = {}  # m1 -> {m2: reduced row of m1 * m2}
        self._derivatives = {}  # m -> reduced row of T m
        self._towers = {}  # m -> [T^k m / k! for k = 1, 2, ...], nonzero
        self._pivots = {}  # lead rank -> unscaled pivot row, on ranks; by _saturate
        self._ranks = None  # each free monomial's rank, parallel to _free
        self._maps = None  # ({monomial: rank}, [monomial of each rank]), by _rank_maps
        if rels:
            self._saturate()

    def _saturate(self):
        """Fill the pivots of the differential ideal: every jet of every
        relation times every monomial that keeps the weight within the
        bound.  A row is the jet's terms that fit, shifted by the monomial;
        the shift is injective, so no two terms of a row share a key.

        The rows are built and reduced on the ranks of packed keys (see
        _enumerate), whose natural order is the monomial order; the pivots
        stay on ranks, and each free monomial's rank is kept in _ranks.

        The one-term pivots are the monomials of the ideal, kept as a set of
        ranks.  A term at one of them is dropped as its row is formed, since
        reduction would delete it; a row that then meets no pivot is stored
        as built, and only a row that still meets one is reduced.  The
        remainder depends only on the span, so the pivots, in their order,
        are those of storing each full row's nonzero remainder at its
        largest rank."""
        W = self.wmax
        fields, keys = self._enumerate()
        unit = {v: u for v, u, _ in fields}
        # Rank by weight, then tuple order: weight delta puts each variable
        # (g, m), m < delta, in ascending order, in front of the monomials
        # of weight delta - m - 1 that do not start before it, in rank order.
        ranked = [[0]]
        ascending = sorted(fields)
        for delta in range(1, W + 1):
            out = []
            for (_, m), u, ceiling in ascending:
                if m < delta:
                    out.extend([u + k for k in ranked[delta - m - 1] if k < ceiling])
            ranked.append(out)
        rank = {k: r for r, k in enumerate(chain.from_iterable(ranked))}
        self._ranks = [[rank[k] for k in ks] for ks in keys]
        pivots = self._pivots
        ideal = set()  # ranks of the one-term pivots
        for rel in self.relations:
            jet = rel.data
            while jet:
                terms = [(mono_weight(m), sum(unit[v] for v in m), c) for m, c in jet.items()]
                low = min(w for w, _, _ in terms)
                for delta in range(W - low + 1):
                    fit = [(k, c) for w, k, c in terms if w + delta <= W]
                    for s in keys[delta]:
                        row = {r: c for k, c in fit if (r := rank[s + k]) not in ideal}
                        if row and not pivots.keys().isdisjoint(row):
                            row = reduce_row(row, pivots)
                        if row:
                            lead = max(row)
                            pivots[lead] = row
                            if len(row) == 1:
                                ideal.add(lead)
                jet = lc_derive(jet, W)

    # -- normal forms ----------------------------------------------------------

    def _rank_maps(self):
        """{monomial: rank} and [monomial of each rank] over the free
        monomials up to the bound, built once."""
        if self._maps is None:
            ranks = chain.from_iterable(self._ranks)
            to_rank = dict(zip(chain.from_iterable(self._free), ranks))
            self._maps = to_rank, sorted(to_rank, key=to_rank.__getitem__)
        return self._maps

    def _reduce(self, row: dict) -> dict:
        """The normal form of a kernel dict: its remainder against the
        pivots, reduced on ranks.  A row that meets no pivot is returned
        as it is, not copied."""
        pivots = self._pivots
        if not pivots:
            return row
        to_rank, by_rank = self._rank_maps()
        ranked = {to_rank[m]: c for m, c in row.items()}
        out = reduce_row(ranked, pivots)
        return row if out is ranked else {by_rank[r]: c for r, c in out.items()}

    def normal_form(self, elem: GradedElement) -> GradedElement:
        self.check(elem)
        return GradedElement._make(self._reduce(elem.data), self.wmax)

    def reduce_monomial(self, mono) -> GradedElement:
        """The normal form of a single free monomial, zero above the bound.
        Not memoised: the product table keeps the rows that products read."""
        if mono_weight(mono) > self.wmax:
            return GradedElement.zero(self.wmax)
        return GradedElement._make(self._reduce({mono: ONE}), self.wmax)

    # -- element constructors ------------------------------------------------

    def unit(self) -> GradedElement:
        return GradedElement.one(self.wmax)

    def zero(self) -> GradedElement:
        return GradedElement.zero(self.wmax)

    def gen(self, name: str, order: int = 0) -> GradedElement:
        if name not in self.generators:
            raise ValueError(f"unknown generator {name!r}")
        return self.normal_form(GradedElement.generator(name, order, self.wmax))

    def parse(self, text: str) -> GradedElement:
        return self.normal_form(parse_element(text, self.generators, self.wmax))

    def check(self, elem: GradedElement):
        """Raise ValueError unless elem has this bound and these generators."""
        if elem.wmax != self.wmax:
            raise ValueError(
                f"element truncation {elem.wmax} does not match presentation {self.wmax}"
            )
        gens = self._generator_set
        for mono in elem.data:
            for g, _ in mono:
                if g not in gens:
                    extra = sorted(elem.generators() - gens)
                    raise ValueError(f"element uses undeclared generators {extra}")

    # -- ring operations ---------------------------------------------------------

    def multiply(self, a: GradedElement, b: GradedElement) -> GradedElement:
        self.check(a)
        self.check(b)
        return GradedElement._make(self.product_rows(a.data, b.data), self.wmax)

    def product(self, elements) -> GradedElement:
        out = self.unit()
        for e in elements:
            out = self.multiply(out, e)
        return out

    def derive(self, a: GradedElement, times: int = 1) -> GradedElement:
        self.check(a)
        data = a.data
        for _ in range(times):
            data = self._derivative(data)
        return GradedElement._make(data, self.wmax)

    def translation_tower(self, a: GradedElement) -> list:
        """[T^k a / k! for k = 0, 1, ...] up to the last nonzero term.

        The k = 0 term is a itself, unreduced; the others are normal forms.
        T^k a = 0 forces T^(k+1) a = 0, so the list stops at the first zero.
        """
        self.check(a)
        if not a:
            return []
        towers = [(c, self._monomial_tower(m)) for m, c in a.data.items()]
        out = [a]
        while True:
            k = len(out) - 1
            data = {}
            for c, tower in towers:
                if k < len(tower):
                    lc_add_scaled(data, c, tower[k])
            if not data:
                return out
            out.append(GradedElement._make(data, self.wmax))

    def flow(self, q: Scalar, z: Scalar):
        """The flow a -> e^{zT} q^{L0} a of the isometry w -> q w + z.

        The exact unit q is checked, and the powers of q and z computed,
        once.  The returned function checks its a; a monomial m of weight w
        and coefficient c gives c q^w m itself (a normal form stays one)
        plus c q^w z^k times each row T^k m / k! of m's memoised tower.
        """
        q = Scalar.coerce(q)
        if not q.is_unit():
            raise ValueError(f"rotation scalar must have unit modulus, got {q}")
        z = Scalar.coerce(z)
        qpow = _powers(q, self.wmax)
        zpow = _powers(z, self.wmax) if z else None

        def flow(a: GradedElement) -> GradedElement:
            self.check(a)
            rotated = {m: c * qpow[mono_weight(m)] for m, c in a.data.items()}
            out = dict(rotated)
            if zpow:
                for m, c in rotated.items():
                    for k, row in enumerate(self._monomial_tower(m), 1):
                        lc_add_scaled(out, c * zpow[k], row)
            return GradedElement._make(out, self.wmax)

        return flow

    def product_rows(self, a: dict, b: dict) -> dict:
        """Normal form of the product of two kernel dicts, by table rows;
        the operands are not checked (see check)."""
        out = {}
        table = self._products
        for m1, c1 in a.items():
            rows = table.get(m1)
            if rows is None:
                rows = table[m1] = {}
            for m2, c2 in b.items():
                row = rows.get(m2)
                if row is None:
                    row = rows[m2] = self.reduce_monomial(mono_mul(m1, m2)).data
                if row:
                    c = c1 if c2 is ONE else c2 if c1 is ONE else c1 * c2
                    lc_add_scaled(out, c, row)
        return out

    def _derivative(self, a: dict) -> dict:
        """Normal form of the derivative of a kernel dict, by table rows."""
        out = {}
        table = self._derivatives
        for m, c in a.items():
            row = table.get(m)
            if row is None:
                row = table[m] = self._reduce(lc_derive({m: ONE}, self.wmax))
            if row:
                lc_add_scaled(out, c, row)
        return out

    def _monomial_tower(self, m) -> list:
        """[T^k m / k! for k >= 1] while nonzero, memoised; the k = 1 row is
        T m unscaled, so its values keep the shared ONE."""
        tower = self._towers.get(m)
        if tower is not None:
            return tower
        tower = []
        data = self._derivative({m: ONE})
        while data:
            tower.append(lc_scale(data, ONE / factorial(len(tower) + 1)) if tower else data)
            data = self._derivative(data)
        self._towers[m] = tower
        return tower

    # -- graded bases ---------------------------------------------------------

    def _free_monomials(self, delta: int):
        """All free monomials of exact weight delta, 0 <= delta <= W, in
        canonical factor order."""
        if self._free is None:
            self._enumerate()
        return self._free[delta]

    def _enumerate(self):
        """Fill _free with the free monomials of every weight up to the
        bound, in one pass; return the variables as (variable, unit,
        ceiling) in canonical factor order, and the packed keys of each
        weight, parallel to _free.

        Weight delta puts each variable (g, m), m < delta, in factor order,
        in front of every monomial of weight delta - m - 1 not starting
        before it.  The packed key of a monomial gives each variable (g, m),
        m < W, a field of W.bit_length() bits, the first in factor order at
        the top.  No exponent of a monomial of weight at most W exceeds W,
        so the key of a product within the bound is the sum of the keys,
        and a monomial starts no earlier than a variable exactly when its
        key is below that variable's ceiling, the top of its field."""
        W = self.wmax
        width = W.bit_length()
        fields = []
        top = width * len(self.generators) * W
        for g in sorted(self.generators):
            for m in range(W - 1, -1, -1):
                top -= width
                fields.append(((g, m), 1 << top, 1 << (top + width)))
        free = [[()]]
        keys = [[0]]
        for delta in range(1, W + 1):
            out = []
            packed = []
            for v, u, ceiling in fields:
                rest = delta - v[1] - 1
                if rest >= 0:
                    head = (v,)
                    for t, k in zip(free[rest], keys[rest]):
                        if k < ceiling:
                            out.append(head + t)
                            packed.append(u + k)
            free.append(out)
            keys.append(packed)
        self._free = free
        return fields, keys

    def weight_basis(self, delta: int):
        """Monomial basis of the weight-delta component, modulo relations."""
        if delta < 0:
            return []
        if delta > self.wmax:
            raise InputError(f"weight {delta} exceeds truncation bound {self.wmax}")
        if delta not in self._basis_cache:
            basis = self._free_monomials(delta)
            pivots = self._pivots
            if pivots:
                basis = [m for m, r in zip(basis, self._ranks[delta]) if r not in pivots]
            self._basis_cache[delta] = basis
        return list(self._basis_cache[delta])

    def dims(self):
        return [len(self.weight_basis(d)) for d in range(self.wmax + 1)]

    def _coordinate_index(self):
        """{monomial: coordinate} over the concatenated weight bases."""
        if self._index is None:
            monos = [m for d in range(self.wmax + 1) for m in self.weight_basis(d)]
            self._index = {m: i for i, m in enumerate(monos)}
        return self._index

    def dimension(self) -> int:
        """The total dimension, the length of basis_monomials(), with no list."""
        return len(self._coordinate_index())

    def basis_monomials(self):
        """Concatenated weight bases for all weights up to the bound."""
        return list(self._coordinate_index())

    def coordinates(self, elem: GradedElement) -> dict:
        """The nonzero exact coordinates of normal_form(elem), as
        {position in basis_monomials(): coefficient}."""
        index = self._coordinate_index()
        return {index[mono]: c for mono, c in self.normal_form(elem).data.items()}

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json(cls, doc: dict) -> "AlgebraPresentation":
        """Presentation of a JSON document; a value of the wrong type is an
        InputError."""
        gens = doc["generators"]
        rels = doc.get("relations", [])
        wmax = doc.get("max_weight", 6)
        for key, value in (("generators", gens), ("relations", rels)):
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise InputError(f"presentation {key} must be a list of strings, got {value!r}")
        if not isinstance(wmax, int) or isinstance(wmax, bool):
            raise InputError(f"presentation max_weight must be an integer, got {wmax!r}")
        return cls(gens, rels, wmax)

    def __repr__(self):
        rels = ", ".join(format_element(r) for r in self.relations)
        return (
            f"<AlgebraPresentation gens={list(self.generators)} "
            f"relations=[{rels}] W={self.wmax}>"
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraPresentation):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.wmax == other.wmax
            and [r.data for r in self.relations] == [r.data for r in other.relations]
        )

    def __hash__(self):
        return hash((self.generators, self.wmax, len(self.relations)))


class AlgebraHom:
    """Unital algebra morphism between presentations, given on variables.

    images maps (generator, order) pairs to target elements; monomials map
    to products of variable images and the map extends linearly.
    """

    def __init__(self, source: AlgebraPresentation, target: AlgebraPresentation, images):
        self.source = source
        self.target = target
        self._images = dict(images)
        self._mono_cache = {(): target.unit()}

    def image_of_variable(self, gen: str, order: int) -> GradedElement:
        try:
            return self._images[(gen, order)]
        except KeyError:
            raise KeyError(f"no image assigned for variable {gen}^({order})") from None

    def _image_of_monomial(self, mono) -> GradedElement:
        cached = self._mono_cache.get(mono)
        if cached is not None:
            return cached
        head = self._image_of_monomial(mono[:-1])
        g, m = mono[-1]
        out = self.target.multiply(head, self.image_of_variable(g, m))
        self._mono_cache[mono] = out
        return out

    def apply(self, elem: GradedElement) -> GradedElement:
        self.source.check(elem)
        out = self.target.zero()
        for mono, coeff in elem.data.items():
            out = out + self._image_of_monomial(mono).scale(coeff)
        return self.target.normal_form(out)

    def variable_items(self):
        return self._images.items()


class LiftError(ValueError):
    """A requested differential extension does not respect the relations."""


def lift_hom(f0, source: AlgebraPresentation, target: AlgebraPresentation) -> AlgebraHom:
    """Extend a generator assignment to the unique differential morphism.

    f0 is a dict mapping source generator names to target elements, or a
    list aligned with source.generators.  The result is an AlgebraHom
    sending x^(m), for each m < W, to the m-th derivative of f0(x), one
    derivation per step.  Raises LiftError when a relation image does not
    vanish in the target up to the truncation bound.
    """
    if not isinstance(f0, dict):
        f0 = dict(zip(source.generators, f0))
    missing = set(source.generators) - set(f0)
    if missing:
        raise LiftError(f"no image for generators {sorted(missing)}")
    images = {}
    for gen in source.generators:
        img = f0[gen]
        for order in range(source.wmax):
            if order:
                img = target.derive(img)
            images[gen, order] = img
    hom = AlgebraHom(source, target, images)
    for rel in source.relations:
        img = hom.apply(rel)
        if img:
            raise LiftError(
                f"relation {format_element(rel)} maps to nonzero {format_element(img)}"
            )
    return hom
