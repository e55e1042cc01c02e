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
zero.  A deliberately slow second route through disk sections and
corestriction is kept for cross-checking the series expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt

from .diskgeom import BasisElement, Disk, GroupElement
from .factalg import TensorSection, corestrict, equivariant_act, tensor_concat
from .grading import GradedElement
from .reports import check_entry
from .scalars import Scalar
from .vertex import ModeTable, VertexAlgebra, completion_translation, vertex_op

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

    def weight_component(self, delta: int) -> dict:
        out = {}
        for exps, elem in self.coeffs.items():
            part = elem.project(delta)
            if part:
                out[exps] = part
        return out

    def map_coefficients(self, fn) -> "InsertionSeries":
        return InsertionSeries(
            self.variables, {e: fn(c) for e, c in self.coeffs.items()}, self.wmax
        )

    def scale_variables(self, q: Scalar) -> "InsertionSeries":
        """Substitute z_i -> q * z_i for every variable."""
        q = Scalar.coerce(q)
        return InsertionSeries(
            self.variables,
            {e: c.scale(q ** sum(e)) for e, c in self.coeffs.items()},
            self.wmax,
        )

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
    """The elements T^k a / k! until truncation kills them."""
    out = []
    cur = a
    k = 0
    while cur:
        out.append(cur.scale(Scalar(Fraction(1, factorial(k)))))
        cur = V.translate(cur)
        k += 1
    return out


def insert(points, elements, V: VertexAlgebra) -> InsertionSeries:
    """The series of the product of states placed at the given points.

    Each point is either a symbolic name (str) or an exact Scalar; exact
    points must be pairwise distinct, matching configurations of distinct
    insertion locations, and symbolic names must not repeat.
    """
    points = list(points)
    elements = list(elements)
    if len(points) != len(elements):
        raise ValueError("need exactly one state per insertion point")
    symbolic = [p for p in points if isinstance(p, str)]
    if len(set(symbolic)) != len(symbolic):
        raise ValueError("symbolic insertion points must be distinct")
    exact = [Scalar.coerce(p) for p in points if not isinstance(p, str)]
    for i in range(len(exact)):
        for j in range(i + 1, len(exact)):
            if exact[i] == exact[j]:
                raise ValueError(
                    f"coincident insertion points: {exact[i]} appears twice"
                )

    variables = tuple(symbolic)
    var_index = {v: i for i, v in enumerate(variables)}
    series = {(0,) * len(variables): V.vacuum()}
    for point, state in zip(points, elements):
        if isinstance(point, str):
            v = var_index[point]
            terms = _expansion_terms(state, V)
            new = {}
            for exps, coeff_elem in series.items():
                for k, term in enumerate(terms):
                    prod = V.multiply(coeff_elem, term)
                    if not prod:
                        continue
                    key = exps[:v] + (exps[v] + k,) + exps[v + 1 :]
                    acc = new.get(key)
                    new[key] = prod if acc is None else acc + prod
            series = new
        else:
            point = Scalar.coerce(point)
            moved = completion_translation(point, state, V) if point else state
            series = {
                exps: V.multiply(coeff_elem, moved)
                for exps, coeff_elem in series.items()
            }
    return InsertionSeries(variables, series, V.wmax)


def vacuum_of(V: VertexAlgebra) -> GradedElement:
    """The unit section pushed into a disk: the algebra unit, weight zero."""
    return insert([], [], V).coefficient(())


def translation_of(a: GradedElement, V: VertexAlgebra) -> GradedElement:
    """First z-coefficient of a one-point insertion: the derivation."""
    return insert(["z"], [a], V).coefficient((1,))


def mode_of(a: GradedElement, b: GradedElement, n: int, V: VertexAlgebra) -> GradedElement:
    """The coefficient of z^(-n-1) in the two-point insertion at (z, 0).

    The series has no pole here, so every mode with n >= 0 is zero; such
    requests are answered with zero rather than rejected.
    """
    if n >= 0:
        return V.zero()
    return _two_point(a, b, V).coefficient((-n - 1,))


def modes_of(a: GradedElement, b: GradedElement, V: VertexAlgebra) -> ModeTable:
    """All modes of the two-point insertion, as a mode table."""
    series = _two_point(a, b, V)
    return ModeTable({-(e[0]) - 1: elem for e, elem in series.coeffs.items()}, V.wmax)


def _two_point(a: GradedElement, b: GradedElement, V: VertexAlgebra) -> InsertionSeries:
    """The insertion of a at z and b at 0; mode n is its z^(-n-1) coefficient."""
    return insert(["z", Scalar(0)], [a, b], V)


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
        sections.append(equivariant_act(GroupElement(Scalar(1), p), home, V))
    if not sections:
        return corestrict(
            TensorSection.unit_on_empty(V.presentation), ambient
        ).as_element()
    combined = sections[0]
    for sec in sections[1:]:
        combined = tensor_concat(combined, sec)
    return corestrict(combined, ambient).as_element()


def eta_roundtrip_check(V: VertexAlgebra, nmax: int = 6, seed: int = 0) -> dict:
    """Certify that the reconstructed structure reproduces the source.

    Compares the reconstructed vacuum, translation, and mode table against
    the native structure on the full monomial basis up to the bound.  Mode
    tables hold every nonzero mode, so equal tables agree on each mode
    with |n| <= nmax, the range the report names.  All comparisons are
    exact.  seed is accepted but unused: nothing is sampled, and the
    report echoes it.
    """
    P = V.presentation
    basis = [
        GradedElement._make({m: Scalar(1)}, P.wmax)
        for delta in range(P.wmax + 1)
        for m in P.weight_basis(delta)
    ]

    checks = []
    checks.append(
        check_entry("vacuum", vacuum_of(V) == V.vacuum(), {"basis_size": len(basis)})
    )

    bad_t = [str(e) for e in basis if translation_of(e, V) != V.translate(e)]
    checks.append(
        check_entry(
            "translation",
            not bad_t,
            {"checked": len(basis), "first_counterexample": bad_t[:1]},
        )
    )

    mode_fail = None
    pairs = 0
    for a in basis:
        for b in basis:
            pairs += 1
            if vertex_op(a, b, V) != modes_of(a, b, V):
                mode_fail = mode_fail or {"a": str(a), "b": str(b)}
    checks.append(
        check_entry(
            "modes",
            mode_fail is None,
            {"pairs": pairs, "nmax": nmax, "first_counterexample": mode_fail},
        )
    )
    return {"checks": checks, "wmax": P.wmax, "nmax": nmax, "seed": seed}
