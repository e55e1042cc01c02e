"""Recovering the vertex structure from disk insertions.

Placing states a_1, ..., a_l at points z_1, ..., z_l of a disk and
multiplying produces the element prod_i e^{z_i T} a_i.  Expanded per
weight this is a polynomial in the insertion points whose coefficients
are exact algebra elements; the z-degree in weight Delta is bounded by
Delta minus the total weight of the states, which is the computable form
of holomorphy of the insertion maps.

The vertex data is read off the series: the vacuum is the unit pushed
into the disk, translation is the z-derivative of a one-point insertion
at z = 0, and the modes of a two-point insertion at (z, 0) are its
Laurent coefficients.  Locally constant structures give series with no
pole, so all non-negative modes vanish and requests for them answer
zero.  insert checks each state once (P.check); the series is then kept
as kernel rows, multiplied through P.product_rows, and a state placed at
an exact point is moved there by P.flow.  The roundtrip check builds each
basis state a's one-point series and native field Field(a, V) once, and
compares, for every b, the series' rows times b placed at 0 with the
field's rows for b, skipping the (a, weight of b) blocks that both sides'
own weight bounds leave empty.  Both sides multiply through the same
product and derivative tables, so the roundtrip sees a fault in the
series expansion, the placement or the translation tower, not a wrong
table entry or a lost pivot (tests/test_fault_matrix.py).  A
deliberately slow second route through disk sections and corestriction
is kept for cross-checking the series expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .diskgeom import BasisElement, Disk, GroupElement
from .factalg import TensorSection, corestrict, equivariant_act, tensor_concat
from .grading import GradedElement
from .reports import check_entry
from .scalars import ONE, ZERO, Scalar
from ._kernels import mono_weight
from .vertex import Field, ModeTable, VertexAlgebra

__all__ = [
    "InsertionSeries",
    "insert",
    "insert_via_disks",
    "vacuum_of",
    "translation_of",
    "mode_of",
    "modes_of",
    "eta_roundtrip_check",
]


class InsertionSeries:
    """Polynomial in the symbolic insertion points with element coefficients."""

    __slots__ = ("variables", "coeffs", "wmax")

    def __init__(self, variables, coeffs: dict, wmax: int):
        self.variables = tuple(variables)
        self.coeffs = {}
        for exps, elem in coeffs.items():
            exps = tuple(exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent arity does not match variables")
            if elem:
                self.coeffs[exps] = elem
        self.wmax = wmax

    def coefficient(self, exps) -> GradedElement:
        return self.coeffs.get(tuple(exps), GradedElement.zero(self.wmax))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def evaluate_exact(self, values: dict) -> GradedElement:
        """Collapse the polynomial at exact scalar values of the variables."""
        out = GradedElement.zero(self.wmax)
        for exps, elem in self.coeffs.items():
            c = Scalar(1)
            for var, e in zip(self.variables, exps):
                if e:
                    c = c * Scalar.coerce(values[var]) ** e
            out = out + elem.scale(c)
        return out

    def __eq__(self, other):
        if not isinstance(other, InsertionSeries):
            return NotImplemented
        return self.variables == other.variables and self.coeffs == other.coeffs

    def __repr__(self):
        body = ", ".join(
            f"{dict(zip(self.variables, e))}: {c}" for e, c in sorted(self.coeffs.items())
        )
        return f"<InsertionSeries {body or '0'}>"


def _expansion_terms(a: GradedElement, V: VertexAlgebra):
    """The elements T^k a / k! until truncation kills them.

    The k = 0 term is a itself; the others are sums of per-monomial terms
    that V memoises, so the translate loop runs once per monomial.
    """
    memo = V.insertion_terms
    rows = []
    for m, c in a.data.items():
        terms = memo.get(m)
        if terms is None:
            terms = memo[m] = _monomial_terms(m, V)
        rows.append((c, terms))
    out = [a]
    while True:
        k = len(out) - 1
        term = V.zero()
        for c, terms in rows:
            if k < len(terms):
                term = term + terms[k].scale(c)
        if not term:
            return out
        out.append(term)


def _monomial_terms(m, V: VertexAlgebra):
    """[T^k m / k! for k >= 1] of one monomial m, while nonzero."""
    out = []
    cur = V.translate(GradedElement._make({m: ONE}, V.wmax))
    while cur:
        out.append(cur.scale(Scalar(1) / factorial(len(out) + 1)))
        cur = V.translate(cur)
    return out


def insert(points, elements, V: VertexAlgebra) -> InsertionSeries:
    """The series of the product of states placed at the given points.

    Each point is either a symbolic name (str) or an exact Scalar; exact
    points must be pairwise distinct, matching configurations of distinct
    insertion locations, and symbolic names must not repeat.
    """
    points = [p if isinstance(p, str) else Scalar.coerce(p) for p in points]
    elements = list(elements)
    if len(points) != len(elements):
        raise ValueError("need exactly one state per insertion point")
    symbolic = [p for p in points if isinstance(p, str)]
    if len(set(symbolic)) != len(symbolic):
        raise ValueError("symbolic insertion points must be distinct")
    exact = [p for p in points if not isinstance(p, str)]
    for i in range(len(exact)):
        for j in range(i + 1, len(exact)):
            if exact[i] == exact[j]:
                raise ValueError(
                    f"coincident insertion points: {exact[i]} appears twice"
                )

    P = V.presentation
    for state in elements:
        P.check(state)

    # Symbolic names are distinct, so the v-th variable's exponent is still
    # 0 in every key when its point is reached: no two products share a key.
    variables = tuple(symbolic)
    series = {(0,) * len(variables): V.vacuum().data}
    v = 0
    for point, state in zip(points, elements):
        if isinstance(point, str):
            terms = _expansion_terms(state, V)
            series = {
                exps[:v] + (k,) + exps[v + 1 :]: prod
                for exps, row in series.items()
                for k, term in enumerate(terms)
                if (prod := P.product_rows(row, term.data))
            }
            v += 1
        else:
            series = _place(series, point, state, V)
    return InsertionSeries(
        variables,
        {exps: GradedElement._make(row, V.wmax) for exps, row in series.items()},
        V.wmax,
    )


def _place(series: dict, point: Scalar, state: GradedElement, V: VertexAlgebra) -> dict:
    """Multiply every row of a series by a checked state placed at an exact
    point: the state moved by e^{point T}, or the state itself at 0."""
    P = V.presentation
    moved = P.flow(ONE, point)(state) if point else state
    return {
        exps: prod
        for exps, row in series.items()
        if (prod := P.product_rows(row, moved.data))
    }


def vacuum_of(V: VertexAlgebra) -> GradedElement:
    """The unit section pushed into a disk: the algebra unit, weight zero."""
    return insert([], [], V).coefficient(())


def translation_of(a: GradedElement, V: VertexAlgebra) -> GradedElement:
    """First z-coefficient of a one-point insertion: the derivation."""
    return insert(["z"], [a], V).coefficient((1,))


def mode_of(a: GradedElement, b: GradedElement, n: int, V: VertexAlgebra) -> GradedElement:
    """The coefficient of z^(-n-1) in the two-point insertion at (z, 0).

    The series has no pole here, so every mode with n >= 0 is zero; such
    requests are answered with zero rather than rejected, once both
    states are checked against the presentation.
    """
    return modes_of(a, b, V)[n]


def modes_of(a: GradedElement, b: GradedElement, V: VertexAlgebra) -> ModeTable:
    """All modes of the two-point insertion, as a mode table."""
    series = insert(["z", Scalar(0)], [a, b], V)
    return ModeTable({-(e[0]) - 1: elem for e, elem in series.coeffs.items()}, V.wmax)


def insert_via_disks(points, elements, V: VertexAlgebra):
    """Exact insertion through disk sections instead of the series formula.

    Builds one small disk per point, moves each state there with the
    equivariant action, concatenates, and corestricts into a disk about
    the origin that holds every small disk.  Agreement with evaluate_exact
    of the symbolic series is a cross-check of the whole disk layer.
    """
    points = [Scalar.coerce(p) for p in points]
    elements = list(elements)
    if len(points) != len(elements):
        raise ValueError("need exactly one state per insertion point")
    r = Fraction(1, 2)
    if len(points) > 1:
        min_d2 = min(
            (points[i] - points[j]).abs2()
            for i in range(len(points))
            for j in range(i + 1, len(points))
        )
        if not min_d2:
            raise ValueError("coincident insertion points")
        while 4 * r * r > min_d2:
            r /= 2
    max_a2 = max((p.abs2() for p in points), default=Fraction(0))
    ambient = BasisElement([Disk(Scalar(0), isqrt(int(max_a2)) + 2 + r)])

    sections = []
    for p, state in zip(points, elements):
        home = TensorSection.simple(
            BasisElement([Disk(Scalar(0), r)]), [state], V.presentation
        )
        sections.append(equivariant_act(GroupElement(Scalar(1), p), home))
    if not sections:
        return corestrict(
            TensorSection.unit_on_empty(V.presentation), ambient
        ).as_element()
    combined = sections[0]
    for sec in sections[1:]:
        combined = tensor_concat(combined, sec)
    return corestrict(combined, ambient).as_element()


def _rows_within(rows, room: int) -> dict:
    """The series rows {exps: row} of (lowest weight, exps, row) triples
    whose lowest weight is at most room."""
    return {e: row for low, e, row in rows if low <= room}


def eta_roundtrip_check(V: VertexAlgebra, nmax: int = 6, seed: int = 0) -> dict:
    """Round trip: the reconstructed structure against the native one.

    Compares the reconstructed vacuum, translation, and mode table against
    the native structure on the full monomial basis up to the bound.  Mode
    tables hold every nonzero mode, so equal tables agree on each mode
    with |n| <= nmax, the range the report names.  All comparisons are
    exact.  nmax is only echoed into the report and seed is unused, since
    nothing is sampled; both stay only because perfbench's roundtrip
    workload (perfbench/workloads.py) passes them.

    Each state a is inserted once, at z: the series' z-coefficient is the
    reconstructed translation of a, and for every b its rows times b at 0
    are the reconstructed modes of (a, b).  The native side is built per
    state too: y_a = Field(a, V) holds a's translation tower, and
    y_a.rows(b) gives the native modes of (a, b) as kernel rows.  The
    series rows are kept with their lowest weights, and per weight d of b
    the rows that can meet b, those of lowest weight at most W - d, are
    picked once; the others times b are truncated away.  When no row is
    picked and the field's own bound y_a.low exceeds W - d too, every
    product on both sides is truncated before any reduction, so the
    block's pairs are counted as agreeing with no product.  Every other
    pair is compared in full: the picked rows times b at 0, as {-e-1: row}
    kernel rows, against y_a.rows(b).  Each side's bound is read from that
    side, so an off-by-one in either still reaches a compared pair.
    """
    P = V.presentation
    wmax = P.wmax
    by_weight = [
        (delta, [GradedElement._make({m: ONE}, wmax) for m in P.weight_basis(delta)])
        for delta in range(wmax + 1)
    ]
    basis = [b for _, states in by_weight for b in states]

    checks = []
    checks.append(
        check_entry("vacuum", vacuum_of(V) == V.vacuum(), {"basis_size": len(basis)})
    )

    bad_t = []
    mode_fail = None
    pairs = 0
    for a in basis:
        s = insert(["z"], [a], V)
        if s.coefficient((1,)) != V.translate(a):
            bad_t.append(str(a))
        rows = [(min(map(mono_weight, c.data)), e, c.data) for e, c in s.coeffs.items()]
        y_a = Field(a, V)
        for delta, states in by_weight:
            room = wmax - delta
            meeting = _rows_within(rows, room)
            pairs += len(states)
            if not meeting and y_a.low > room:
                # Both sides' own bounds: every product is truncated away.
                continue
            for b in states:
                # Both sides hold only the nonzero modes, as kernel rows.
                modes = {-e[0] - 1: row for e, row in _place(meeting, ZERO, b, V).items()}
                if y_a.rows(b) != modes:
                    mode_fail = mode_fail or {"a": str(a), "b": str(b)}
    checks.append(
        check_entry(
            "translation",
            not bad_t,
            {"checked": len(basis), "first_counterexample": bad_t[:1]},
        )
    )
    checks.append(
        check_entry(
            "modes",
            mode_fail is None,
            {"pairs": pairs, "nmax": nmax, "first_counterexample": mode_fail},
        )
    )
    return {"checks": checks}
