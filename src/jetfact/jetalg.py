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
enumerating the free monomials of each weight once.  The rows are not
reduced against each other, yet normal forms are canonical: the set of
leading monomials and the remainder of an element after full reduction
depend only on the span, not on the echelon basis chosen for it.

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
free presentation's product table is {m: ONE}, and the row sums skip
each multiplication by ONE: a product on a free presentation makes one
Scalar multiplication per pair of terms, and none where a coefficient
is ONE, as on basis states.  The translation tower T^k a / k! of an
element and the flow e^{zT} q^{L0} that moves disk sections are summed
in the same way from per-monomial towers built on the derivative table.

Presentations are immutable after construction.  The internal caches
(free monomials, weight bases, the coordinate index, normal forms of
monomials, the product and derivative tables, the per-monomial towers)
are idempotent, so concurrent readers at worst recompute a value; no
synchronization is required.
"""

from __future__ import annotations

from math import factorial

from .errors import InputError
from .exprs import parse_element
from .grading import GradedElement, format_element
from .scalars import ONE, Scalar
from ._kernels import factor_key, lc_derive, lc_scale, mono_mul, mono_weight

__all__ = [
    "Echelon",
    "AlgebraPresentation",
    "AlgebraHom",
    "LiftError",
    "lift_hom",
]


def _order_key(mono):
    return (mono_weight(mono), mono)


def _add_scaled(out: dict, c, row: dict) -> None:
    """out += c * row in place, zero sums dropped; a factor that is ONE
    costs no multiplication."""
    for m, v in row.items():
        t = v if c is ONE else c if v is ONE else c * v
        acc = out.get(m)
        if acc is None:
            out[m] = t
        else:
            t = acc + t
            if t:
                out[m] = t
            else:
                del out[m]


def _powers(s: Scalar, n: int) -> list:
    """[s^0, s^1, ..., s^n]."""
    out = [ONE]
    for _ in range(n):
        out.append(out[-1] * s)
    return out


class Echelon:
    """Sparse rows over the Gaussian rationals in row-echelon form.

    pivots maps the leading key of each row, its largest key under the
    sort key given (natural order by default), to that row scaled to a
    leading coefficient of one, and order maps it to its sort key.  The
    rows are not reduced against later pivots.
    """

    __slots__ = ("pivots", "order", "key")

    def __init__(self, key=None):
        self.pivots = {}
        self.order = {}
        self.key = key

    def reduce(self, row: dict) -> dict:
        """The remainder of row after full reduction: no key of it is a
        pivot.  It depends only on the span of the rows added."""
        pivots = self.pivots
        if not pivots:
            return row
        row = dict(row)
        while True:
            hits = [m for m in row if m in pivots]
            if not hits:
                return row
            m = max(hits, key=self.order.__getitem__)
            c = row.pop(m)
            for pm, pv in pivots[m].items():
                if pm == m:
                    continue
                acc = row.get(pm)
                nv = -(c * pv) if acc is None else acc - c * pv
                if nv:
                    row[pm] = nv
                else:
                    row.pop(pm, None)

    def add(self, row: dict) -> bool:
        """Add row to the span; True if it was independent of the rows before."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row, key=self.key)
        inv = Scalar(1) / row[lead]
        self.pivots[lead] = {m: c * inv for m, c in row.items()}
        self.order[lead] = lead if self.key is None else self.key(lead)
        return True


class AlgebraPresentation:
    """Generators, relations, and truncation bound of a jet algebra."""

    def __init__(self, generators, relations=(), max_weight: int = 6):
        generators = tuple(generators)
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
            if not r.generators() <= self._generator_set:
                raise InputError("relation uses undeclared generators")
            if r:
                rels.append(r)
        self.relations = tuple(rels)
        self._free = {0: [()]}
        self._basis_cache = {}
        self._index = None
        self._mono_nf = {}
        self._products = {}  # m1 -> {m2: reduced row of m1 * m2}
        self._derivatives = {}  # m -> reduced row of T m
        self._towers = {}  # m -> [T^k m / k! for k = 1, 2, ...], nonzero
        # Saturate the differential ideal: every jet of every relation
        # times every monomial that keeps the weight within the bound.  A
        # row is the jet's terms that fit, shifted by the monomial; the
        # shift is injective, so no two terms of a row share a key.
        self._echelon = Echelon(_order_key)
        for rel in rels:
            jet = rel.data
            while jet:
                terms = [(mono_weight(m), m, c) for m, c in jet.items()]
                low = min(w for w, _, _ in terms)
                for delta in range(max_weight - low + 1):
                    fit = [(m, c) for w, m, c in terms if w + delta <= max_weight]
                    for mono in self._free_monomials(delta):
                        self._echelon.add({mono_mul(mono, m): c for m, c in fit})
                jet = lc_derive(jet, max_weight)

    # -- normal forms ----------------------------------------------------------

    def normal_form(self, elem: GradedElement) -> GradedElement:
        self.check(elem)
        return GradedElement._make(self._echelon.reduce(elem.data), self.wmax)

    def reduce_monomial(self, mono) -> GradedElement:
        """Cached normal form of a single free monomial.

        The hot path of the section layer: grouped tensor factors multiply
        into one free monomial whose reduction is shared across keys.
        """
        out = self._mono_nf.get(mono)
        if out is None:
            if mono_weight(mono) > self.wmax:
                out = GradedElement.zero(self.wmax)
            else:
                out = GradedElement._make(self._echelon.reduce({mono: ONE}), self.wmax)
            self._mono_nf[mono] = out
        return out

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
                    _add_scaled(data, c, tower[k])
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
                        _add_scaled(out, c * zpow[k], row)
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
                    _add_scaled(out, c, row)
        return out

    def _derivative(self, a: dict) -> dict:
        """Normal form of the derivative of a kernel dict, by table rows."""
        out = {}
        table = self._derivatives
        for m, c in a.items():
            row = table.get(m)
            if row is None:
                row = table[m] = self._echelon.reduce(lc_derive({m: ONE}, self.wmax))
            if row:
                _add_scaled(out, c, row)
        return out

    def _monomial_tower(self, m) -> list:
        """[T^k m / k! for k >= 1] while nonzero, memoised."""
        tower = self._towers.get(m)
        if tower is not None:
            return tower
        tower = []
        data = self._derivative({m: ONE})
        while data:
            tower.append(lc_scale(data, ONE / factorial(len(tower) + 1)))
            data = self._derivative(data)
        self._towers[m] = tower
        return tower

    # -- graded bases ---------------------------------------------------------

    def _free_monomials(self, delta: int):
        """All free monomials of exact weight delta >= 0 in canonical factor
        order, memoised; weight delta puts each factor (g, m), in that order,
        in front of every monomial of weight delta - m - 1 not starting
        before it."""
        out = self._free.get(delta)
        if out is None:
            out = []
            for g in sorted(self.generators):
                for m in range(delta - 1, -1, -1):
                    head = (g, m)
                    key = factor_key(head)
                    out.extend(
                        (head,) + rest
                        for rest in self._free_monomials(delta - m - 1)
                        if not rest or key <= factor_key(rest[0])
                    )
            self._free[delta] = out
        return out

    def weight_basis(self, delta: int):
        """Monomial basis of the weight-delta component, modulo relations."""
        if delta < 0:
            return []
        if delta > self.wmax:
            raise InputError(f"weight {delta} exceeds truncation bound {self.wmax}")
        if delta not in self._basis_cache:
            self._basis_cache[delta] = [
                m for m in self._free_monomials(delta) if m not in self._echelon.pivots
            ]
        return list(self._basis_cache[delta])

    def dims(self):
        return [len(self.weight_basis(d)) for d in range(self.wmax + 1)]

    def _coordinate_index(self):
        """{monomial: coordinate} over the concatenated weight bases."""
        if self._index is None:
            monos = [m for d in range(self.wmax + 1) for m in self.weight_basis(d)]
            self._index = {m: i for i, m in enumerate(monos)}
        return self._index

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
