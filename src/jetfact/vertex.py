"""Commutative graded vertex operators over a jet presentation.

The state space is the truncated graded algebra of a presentation, the
vacuum is the algebra unit, and translation is the derivation.  The field
attached to a state acts by

    Y(a, z) b = sum over n >= 0 of z^n / n! times (T^n a) * b,

so the mode a_(n) b is the z^(-n-1) coefficient: modes with n >= 0 vanish
and a_(-n-1) b = (T^n a) * b / n!.  The tower T^n a / n! depends on a
alone, so Field(a, V) builds it once: field.rows(b) gives the nonzero
modes of (a, b) as kernel rows {n: row}, through the presentation's check
and product_rows, field(b) the same modes as a ModeTable, and field.low
is the least lowest weight of the tower, so that no b of lowest weight
above W - low meets the field.  vertex_op is the field's form for one
pair, and field_tables(V), one Field per distinct state, the table maker
of both locality checks, the exact one here and numcx's.  The flow a ->
e^{zT} q^{L0} a of an isometry is the presentation's flow(q, z);
completion_rotation and completion_translation, its forms for q or z
alone, stay only as benchmark trace targets and for tests.  The
axiom checker verifies the vacuum, translation, and locality identities
on seeded samples; locality is run as the finite binomial mode identity
at orders N = 0, 1, 2, which is the form the residue calculus reduces it
to.  It also checks, once, that translation sends each jet variable
g^(k) to g^(k+1).
"""

from __future__ import annotations

from functools import cache
from math import comb

from .grading import GradedElement, format_element, format_monomial
from .jetalg import AlgebraPresentation
from .reports import SampledChecks, check_entry
from .sampling import Sampler
from .scalars import ONE, ZERO, Scalar
from ._kernels import mono_weight

__all__ = [
    "VertexAlgebra",
    "ModeTable",
    "Field",
    "vertex_op",
    "field_tables",
    "completion_rotation",
    "completion_translation",
    "check_vertex_axioms",
    "locality_sides",
    "translation_identity_failures",
]


class VertexAlgebra:
    """Vacuum and translation of a commutative graded state space; products
    are the presentation's."""

    def __init__(self, presentation: AlgebraPresentation):
        self.presentation = presentation
        self.wmax = presentation.wmax
        # reconstruct's per-monomial T^k m / k!, built by its own translate
        # loop: the roundtrip check compares it with the presentation's
        # translation tower, so the two must not share one memo.
        self.insertion_terms = {}

    def vacuum(self) -> GradedElement:
        return self.presentation.unit()

    def translate(self, a: GradedElement) -> GradedElement:
        return self.presentation.derive(a)

    def zero(self) -> GradedElement:
        return self.presentation.zero()

    def __repr__(self):
        return f"<VertexAlgebra over {self.presentation!r}>"


# Elements are immutable, so every absent mode of a bound is the same zero.
_zero = cache(GradedElement.zero)


class ModeTable:
    """Finite family of modes a_(n) b, indexed by n; absent modes read one
    shared zero of the bound."""

    __slots__ = ("modes", "wmax")

    def __init__(self, modes: dict, wmax: int):
        self.modes = {n: e for n, e in modes.items() if e}
        self.wmax = wmax

    @classmethod
    def _of_rows(cls, rows: dict, wmax: int) -> "ModeTable":
        """The table of kernel rows {n: row}, all nonzero, so none is
        filtered out again."""
        self = object.__new__(cls)
        self.modes = {n: GradedElement._make(row, wmax) for n, row in rows.items()}
        self.wmax = wmax
        return self

    def __getitem__(self, n: int) -> GradedElement:
        e = self.modes.get(n)
        return _zero(self.wmax) if e is None else e

    def items(self):
        return sorted(self.modes.items())

    def indices(self):
        return sorted(self.modes)

    def __eq__(self, other):
        if not isinstance(other, ModeTable):
            return NotImplemented
        return self.modes == other.modes

    def __repr__(self):
        body = ", ".join(f"{n}: {format_element(e)}" for n, e in self.items())
        return f"ModeTable({{{body}}})"


class Field:
    """The field Y(a, z) of one state a, for any b.

    a is checked and its translation tower T^n a / n! built once, each
    term kept with its lowest monomial weight; low is the least of these
    (W + 1 when a is zero), so no product of the field with a state of
    lowest weight above W - low survives truncation.  rows(b) checks b,
    also when a is zero, and returns {n: kernel row} of the nonzero modes
    a_(n) b, multiplying by b through the product table rows only the
    terms that can meet b.  A term whose lowest weight plus b's exceeds W
    is skipped: every free product of their monomials weighs more than W,
    so it is truncated before any reduction.  The lowest weight, not
    wt(a) + n, is the bound, since reduction by a non-homogeneous relation
    lowers weights.  Calling the field on b gives the same modes as a
    ModeTable.
    """

    __slots__ = ("presentation", "wmax", "low", "_tower")

    def __init__(self, a: GradedElement, V: VertexAlgebra):
        P = self.presentation = V.presentation
        self.wmax = V.wmax
        self._tower = [(min(map(mono_weight, t.data)), t.data) for t in P.translation_tower(a)]
        self.low = min((low for low, _ in self._tower), default=V.wmax + 1)

    def rows(self, b: GradedElement) -> dict:
        P = self.presentation
        P.check(b)
        room = self.wmax - min(map(mono_weight, b.data), default=self.wmax + 1)
        modes = {}
        for n, term in _terms_within(self._tower, room):
            prod = P.product_rows(term, b.data)
            if prod:
                modes[-n - 1] = prod
        return modes

    def __call__(self, b: GradedElement) -> ModeTable:
        return ModeTable._of_rows(self.rows(b), self.wmax)


def _terms_within(tower, room: int) -> list:
    """The (n, term) of a tower of (lowest weight, term) pairs whose lowest
    weight is at most room."""
    return [(n, term) for n, (low, term) in enumerate(tower) if low <= room]


def vertex_op(a: GradedElement, b: GradedElement, V: VertexAlgebra) -> ModeTable:
    """All modes of Y(a, z) b up to the truncation bound."""
    return Field(a, V)(b)


def field_tables(V: VertexAlgebra):
    """table_fn(x, y), the mode table of (x, y), from one Field per
    distinct x, so each tower is summed once.  Make one per check call:
    the fields live as long as table_fn."""
    field = cache(lambda x: Field(x, V))
    return lambda x, y: field(x)(y)


def completion_rotation(q: Scalar, a: GradedElement, V: VertexAlgebra) -> GradedElement:
    """Scale the weight-d component by q**d; q must be an exact unit.
    P.flow(q, 0), kept only as a benchmark trace target and for tests."""
    return V.presentation.flow(q, ZERO)(a)


def completion_translation(z: Scalar, a: GradedElement, V: VertexAlgebra) -> GradedElement:
    """Truncated exponential of the translation operator applied to a.

    This is an algebra morphism up to the truncation bound because the
    translation is a derivation.  P.flow(1, z), kept only as a benchmark
    trace target (perfbench/catalog.py) and for tests.
    """
    return V.presentation.flow(ONE, z)(a)


def translation_identity_failures(table: ModeTable, V: VertexAlgebra, tb: ModeTable):
    """Indices where T(a_(n) b) != -n a_(n-1) b + a_(n) (T b), with table
    the mode table of (a, b) and tb that of (a, T b)."""
    bad = []
    for n in set(table.indices()) | {i + 1 for i in table.indices()} | set(tb.indices()):
        lhs = V.translate(table[n])
        rhs = table[n - 1].scale(Scalar(-n)) + tb[n]
        if lhs != rhs:
            bad.append(n)
    return sorted(bad)


def locality_sides(a, b, c, m, n, N, V, table_fn):
    """Both sides of the order-N binomial locality identity

        sum_k (-1)^k C(N, k) a_(m+N-k) b_(n+k) c
            = sum_k (-1)^k C(N, k) b_(n+k) a_(m+N-k) c,

    with table_fn(x, y) giving the mode table of (x, y)."""
    bc = table_fn(b, c)
    ac = table_fn(a, c)
    lhs = V.zero()
    rhs = V.zero()
    for k in range(N + 1):
        coeff = Scalar((-1) ** k * comb(N, k))
        lhs = lhs + table_fn(a, bc[n + k])[m + N - k].scale(coeff)
        rhs = rhs + table_fn(b, ac[m + N - k])[n + k].scale(coeff)
    return lhs, rhs


def check_vertex_axioms(
    V: VertexAlgebra,
    samples: int = 50,
    seed: int = 0,
    table_fn=None,
    vacuum=None,
) -> dict:
    """Sampled verification of the vacuum, translation, and locality axioms.

    table_fn(x, y) gives the mode table of (x, y) and vacuum the vacuum
    state; they default to field_tables(V), made for this call, which
    residue_swap_check uses too, and V.vacuum().  Every axiom reads
    its modes through table_fn, with V.translate as the translation, so
    the reconstruction layer can pass its own to certify that an
    independently derived structure satisfies the same axioms.  The last
    entry, translation_is_jet, is deterministic: V.translate must send
    every variable g^(k) with k < W to g^(k+1).  Returns a JSON-ready
    report with per-axiom pass counts and the first counterexample of
    each failing axiom.
    """
    sampler = Sampler(seed)
    if table_fn is None:
        table_fn = field_tables(V)
    if vacuum is None:
        vacuum = V.vacuum()

    tally = SampledChecks(
        ["vacuum_left", "vacuum_right", "translation", "mode_weights", "commutative_modes"]
        + [f"locality_N{N}" for N in (0, 1, 2)]
    )

    for _ in range(samples):
        a = sampler.homogeneous_element(V.presentation)
        b = sampler.homogeneous_element(V.presentation)
        c = sampler.homogeneous_element(V.presentation)
        # The axioms below read some tables more than once.
        tables = cache(table_fn)

        # Y(|0>, z) = id: the only mode of (vacuum, b) is b itself at n = -1.
        modes = tables(vacuum, b)
        got = modes[-1]
        ok = got == b and not modes[-2] and not modes[0]
        tally.record("vacuum_left", ok, lambda: {"b": str(b), "got": str(got)})

        # Y(a, z)|0> has no poles and evaluates to a at z = 0.
        modes = tables(a, vacuum)
        got = modes[-1]
        ok = got == a and not modes[0] and not modes[1]
        tally.record("vacuum_right", ok, lambda: {"a": str(a), "got": str(got)})

        # [T, Y(a, z)] = d/dz Y(a, z) as the mode identity.
        table = tables(a, b)
        tb = tables(a, V.translate(b))
        bad = translation_identity_failures(table, V, tb)

        def translation_detail():
            detail = {"a": str(a), "b": str(b), "bad_n": bad}
            n = bad[0]
            detail["lhs"] = str(V.translate(table[n]))
            detail["rhs"] = str(table[n - 1].scale(Scalar(-n)) + tb[n])
            return detail

        tally.record("translation", not bad, translation_detail)

        # Grading: a_(n) b lands in weight da + db - n - 1.
        da, db = a.weight(), b.weight()
        ok = all(
            elem.is_homogeneous() and elem.weight() == da + db - n - 1
            for n, elem in table.items()
        )
        tally.record("mode_weights", ok, lambda: {"a": str(a), "b": str(b)})

        # Non-negative modes vanish.
        ok = not table[0] and not table[1] and not table[2]
        tally.record("commutative_modes", ok, lambda: {"a": str(a), "b": str(b)})

        m = -sampler.rng.randint(1, 2)
        n = -sampler.rng.randint(1, 2)
        for N in (0, 1, 2):
            lhs, rhs = locality_sides(a, b, c, m, n, N, V, tables)
            tally.record(
                f"locality_N{N}",
                lhs == rhs,
                lambda: {
                    "a": str(a),
                    "b": str(b),
                    "c": str(c),
                    "m": m,
                    "n": n,
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                },
            )

    P = V.presentation
    variables = [(g, k) for g in P.generators for k in range(V.wmax)]
    bad = next(
        (
            format_monomial(((g, k),))
            for g, k in variables
            if V.translate(P.gen(g, k)) != P.gen(g, k + 1)
        ),
        None,
    )
    checks = tally.entries(samples) + [
        check_entry(
            "translation_is_jet",
            bad is None,
            {"checked": len(variables), "first_counterexample": bad},
        )
    ]
    return {"checks": checks}
