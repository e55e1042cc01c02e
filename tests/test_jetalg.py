import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, gcd

import pytest

from jetfact._kernels import lc_derive, lc_mul, lc_scale, mono_weight

from jetfact import jetalg, scalars
from jetfact.errors import InputError
from jetfact.exprs import parse_element
from jetfact.factalg import _exact_rank, check_coequalizer_chain
from jetfact.grading import GradedElement
from jetfact.jetalg import (
    AlgebraHom,
    AlgebraPresentation,
    LiftError,
    lift_hom,
)
from jetfact.reports import all_pass
from jetfact.sampling import Sampler
from jetfact.scalars import ONE, Scalar, reduce_row


def brute_force_partitions(n: int, max_part=None) -> int:
    """Independent oracle: count partitions of n by direct recursion."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return brute_force_partitions(n - max_part, max_part) + brute_force_partitions(
        n, max_part - 1
    )


def test_free_dims_match_partition_oracle():
    P = AlgebraPresentation(["x"], [], 12)
    expected = [brute_force_partitions(d) for d in range(13)]
    assert P.dims() == expected
    assert expected[10] == 42 and expected[12] == 77


def independent_free_monomials(generators, delta):
    """Oracle for the free-monomial order: multisets of canonically ordered
    factors (generators ascending, orders descending) of weight delta, in
    lexicographic order of their factor indices."""
    factors = [(g, m) for g in sorted(generators) for m in range(delta - 1, -1, -1)]
    found = []
    for k in range(delta + 1):
        # A monomial with k factors has none of order above delta - k.
        usable = [i for i, (_, m) in enumerate(factors) if m <= delta - k]
        for idx in combinations_with_replacement(usable, k):
            if sum(factors[i][1] + 1 for i in idx) == delta:
                found.append(idx)
    return [tuple(factors[i] for i in idx) for idx in sorted(found)]


@pytest.mark.parametrize("generators", [["x"], ["y", "x"], ["a", "u", "z"]])
def test_free_weight_basis_order_matches_oracle(generators):
    P = AlgebraPresentation(generators, [], 8)
    for delta in range(9):
        assert P.weight_basis(delta) == independent_free_monomials(generators, delta)


def test_free_monomials_built_once_per_presentation(monkeypatch):
    built = []
    inner = AlgebraPresentation._free_monomials

    def spy(self, delta):
        out = inner(self, delta)
        built.append(out)
        return out

    monkeypatch.setattr(AlgebraPresentation, "_free_monomials", spy)
    AlgebraPresentation(["x", "y"], [], 10)
    assert built == []  # a free presentation enumerates nothing up front
    P = AlgebraPresentation(["x", "y"], ["x*y"], 10)
    P.dims()
    # Saturation and the weight bases read one list per weight 0..10.
    assert len({id(lst) for lst in built}) == 11


def test_weight_basis_examples(free_x):
    basis2 = free_x.weight_basis(2)
    assert set(basis2) == {(("x", 1),), (("x", 0), ("x", 0))}
    assert free_x.weight_basis(0) == [()]
    assert free_x.weight_basis(-1) == []
    with pytest.raises(ValueError):
        free_x.weight_basis(7)


def test_multiply_examples(free_x):
    x = free_x.gen("x")
    assert free_x.multiply(x, x) == GradedElement({(("x", 0), ("x", 0)): 1}, 6)
    assert free_x.multiply(x, free_x.unit()) == x


def test_multiply_in_quotient(quot_x2):
    x = quot_x2.gen("x")
    assert not quot_x2.multiply(x, x)


def test_quotient_dims_double_point():
    # Jets of the double point: dimensions follow the distinct-gap partition
    # counts 1, 1, 1, 1, 2, 2, 3, ...
    P = AlgebraPresentation(["x"], ["x*x"], 6)
    assert P.dims() == [1, 1, 1, 1, 2, 2, 3]


def test_quotient_dims_cross(quot_xy):
    assert quot_xy.dims() == [1, 2, 4, 7, 12, 19, 30]


def test_inhomogeneous_relation_supported():
    # x*x = x: the idempotent relation is weight-inhomogeneous; reduction
    # by leading structure still yields consistent products and jets.
    P = AlgebraPresentation(["x"], ["x*x - x"], 6)
    x = P.gen("x")
    assert P.multiply(x, x) == x
    # Deriving the square and the generator agree in the quotient.
    assert P.derive(P.multiply(x, x)) == P.derive(x)


def test_inhomogeneous_germs_at_the_origin():
    # F / (I + F_{>W}) sees the germ of the variety at the origin: x*x = -1
    # misses it (the zero algebra), x*x = x meets it in the reduced point x = 0.
    assert AlgebraPresentation(["x"], ["x*x + 1"], 6).dims() == [0] * 7
    assert AlgebraPresentation(["x"], ["x*x - x"], 6).dims() == [1] + [0] * 6


@pytest.mark.parametrize("W, total, weight_4", [(6, 30, 8), (8, 67, 11)])
def test_inhomogeneous_total_is_exact_but_not_its_split(W, total, weight_4):
    # y = x*x is a graph over the x-line: the jets have the total dimension
    # of free x, while the count at weight 4 moves with the bound W.
    P = AlgebraPresentation(["x", "y"], ["y - x*x"], W)
    assert sum(P.dims()) == total == sum(AlgebraPresentation(["x"], [], W).dims())
    assert P.dims()[4] == weight_4


def euler_product(multiplicity, W):
    """Independent oracle: coefficients of prod_n (1 - q^n)^(-multiplicity(n))
    up to q^W, by repeated division by 1 - q^n."""
    coeffs = [1] + [0] * W
    for n in range(1, W + 1):
        for _ in range(multiplicity(n)):
            for i in range(n, W + 1):
                coeffs[i] += coeffs[i - n]
    return coeffs


def test_free_dims_match_product_formula():
    # Free on g generators: prod (1 - q^n)^(-g).
    assert AlgebraPresentation(["x", "y"], [], 10).dims() == euler_product(lambda n: 2, 10)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_double_point_dims_match_rogers_ramanujan(k):
    # Jets of x^k = 0 count partitions with no part congruent to 0 or +-k
    # mod 2k + 1: Rogers-Ramanujan for k = 2 and Andrews-Gordon beyond
    # (Bruschek, Mourtada and Schepers, Arc spaces and Rogers-Ramanujan
    # identities).
    W = 14
    expected = euler_product(lambda n: 0 if n % (2 * k + 1) in (0, k, k + 1) else 1, W)
    assert AlgebraPresentation(["x"], ["*".join("x" * k)], W).dims() == expected


def test_change_of_coordinates_is_an_isomorphism():
    # Over Q(i), x -> x + i y, y -> x - i y turns x*y into x*x + y*y.
    cross = AlgebraPresentation(["x", "y"], ["x*y"], 12)
    circle = AlgebraPresentation(["x", "y"], ["x*x + y*y"], 12)
    assert cross.dims() == circle.dims()
    assert cross.dims()[12] == 272

    W = 8
    cross = AlgebraPresentation(["x", "y"], ["x*y"], W)
    circle = AlgebraPresentation(["x", "y"], ["x*x + y*y"], W)
    hom = lift_hom({"x": circle.parse("x + i*y"), "y": circle.parse("x - i*y")}, cross, circle)
    for delta in range(W + 1):
        basis = cross.weight_basis(delta)
        rows = [circle.coordinates(hom.apply(GradedElement({m: 1}, W))) for m in basis]
        assert _exact_rank(rows) == len(basis) == circle.dims()[delta]
    with pytest.raises(LiftError):
        lift_hom({"x": circle.gen("x"), "y": circle.gen("y")}, cross, circle)


TABLE_PRESENTATIONS = [
    (["x"], []),
    (["x", "y"], []),
    (["x"], ["x*x"]),
    (["x", "y"], ["x*y"]),
    (["x", "y"], ["x*x + y*y"]),
]


@pytest.mark.parametrize(
    "gens, rels", TABLE_PRESENTATIONS, ids=lambda v: ",".join(v) or "free"
)
def test_tables_match_direct_reduction(gens, rels):
    # The product and derivative tables against reducing the kernel result
    # directly, on seeded sums of free monomials (not in normal form).
    W = 6
    P = AlgebraPresentation(gens, rels, W)
    s = Sampler(17)

    def reduce(data):
        return P.normal_form(GradedElement._make(data, W)).data

    def free_element():
        data = {}
        for _ in range(s.rng.randint(1, 3)):
            mono = s.rng.choice(P._free_monomials(s.rng.randint(0, W)))
            data[mono] = s.nonzero_scalar()
        return GradedElement._make(data, W)

    for _ in range(30):
        a, b = free_element(), free_element()
        assert P.multiply(a, b).data == reduce(lc_mul(a.data, b.data, W))
        assert P.product_rows(a.data, b.data) == reduce(lc_mul(a.data, b.data, W))
        once = reduce(lc_derive(a.data, W))
        assert P.derive(a).data == once
        assert P.derive(a, times=2).data == reduce(lc_derive(once, W))
        expected = [a.data]
        while once:
            expected.append(lc_scale(once, Scalar(Fraction(1, factorial(len(expected))))))
            once = reduce(lc_derive(once, W))
        assert [t.data for t in P.translation_tower(a)] == expected


SATURATION_PRESENTATIONS = [
    # The five elimination benchmark templates, with fixed names and signs.
    (["x", "y"], ["-3/2*x*y"], 10),
    (["u", "v", "z"], ["2/3*u*v", "-1/2*v*z"], 8),
    (["a", "b"], ["3*a*a - 2/3*b*b"], 9),
    (["x", "y"], ["-2*x*d(y) + 3/2*y*d(x)"], 10),
    (["x", "y", "z"], ["1/2*x*z", "-3*y*y"], 8),
    (["x"], ["x*x"], 10),
    (["x", "y"], ["x*x + y*y"], 9),
    # Edge cases of the packed keys: generators out of sorted order, a
    # name that is a prefix of another, an inhomogeneous relation, the top
    # jet d^(W-1), and the smallest bounds.
    (["y", "x"], ["x*y - 2*y*d(y)"], 8),
    (["x", "xx"], ["x*xx + d(x)*xx - d^2(xx)"], 7),
    (["x", "y"], ["y - x*x + 2*x*y*y"], 8),
    (["x", "y"], ["d^7(x) + x*y"], 8),
    (["x", "y"], ["x - 2*y"], 1),
    (["x", "y"], ["2 + x*y"], 0),
    # The binomial's pivots come first; many hold a rank that x*y later
    # makes a one-term pivot, where the build's filter meets their rows.
    (["x", "y"], ["x*x - 2*y*y", "x*y"], 8),
    # Complex leads: the reduction divides by i and by a non-real lead.
    (["x", "y"], ["x*x + i*y*y"], 8),
    (["x", "y"], ["i*x*d(y) - 2/3*y*d(x)"], 9),
]


def pivots_of(rows):
    """{lead: row} of rows added in turn: each nonzero remainder is stored
    at its largest key, uncopied."""
    pivots = {}
    for row in rows:
        row = reduce_row(row, pivots)
        if row:
            pivots[max(row)] = row
    return pivots


def generic_saturation(P):
    """The saturation rows of P rebuilt with generic products: every
    relation jet times every free monomial that keeps a term within the
    bound, through lc_mul, in the construction's order."""
    W = P.wmax
    for rel in P.relations:
        jet = rel.data
        while jet:
            low = min(mono_weight(m) for m in jet)
            for delta in range(W - low + 1):
                for mono in P._free_monomials(delta):
                    yield lc_mul({mono: Scalar(1)}, jet, W)
            jet = lc_derive(jet, W)


@pytest.mark.parametrize(
    "gens, rels, W",
    SATURATION_PRESENTATIONS,
    ids=[
        "xy", "uv-vz", "aa-bb", "xdy-ydx", "xz-yy", "xx", "xx+yy",
        "unsorted", "prefix", "inhomogeneous", "top-jet", "W=1", "W=0",
        "xx-yy,xy", "xx+iyy", "ixdy-ydx",
    ],
)
def test_saturation_matches_generic_products(gens, rels, W):
    # The echelon of the generic saturation must be the construction's,
    # pivot for pivot, on ranks.  The reference ranks the free monomials
    # itself, by weight and then tuple order, and reduces the rows on the
    # ranks.
    P = AlgebraPresentation(gens, rels, W)
    monos = sorted(
        (m for d in range(W + 1) for m in P._free_monomials(d)),
        key=lambda m: (mono_weight(m), m),
    )
    rank = {m: r for r, m in enumerate(monos)}
    pivots = pivots_of({rank[m]: c for m, c in row.items()} for row in generic_saturation(P))
    assert pivots == P._pivots
    assert list(pivots) == list(P._pivots)


def test_saturation_ranks_every_free_monomial_in_the_monomial_order():
    # The relation 1 makes every free monomial a pivot, so the rank map
    # holds the rank of each, from 0 in weight-then-tuple order.
    W = 8
    P = AlgebraPresentation(["y", "x", "xx"], ["1"], W)
    to_rank, by_rank = P._rank_maps()
    monos = [m for d in range(W + 1) for m in P._free_monomials(d)]
    assert list(P._pivots) == [to_rank[m] for m in monos]
    ranked = sorted(monos, key=lambda m: (mono_weight(m), m))
    assert sorted(to_rank, key=to_rank.__getitem__) == ranked == by_rank
    assert sorted(P._pivots) == list(range(len(monos)))


def test_saturation_makes_no_tuple_products(monkeypatch):
    # The build shifts rows by adding packed keys, never by mono_mul.
    calls = []
    mono_mul = jetalg.mono_mul
    monkeypatch.setattr(jetalg, "mono_mul", lambda a, b: calls.append(1) or mono_mul(a, b))
    for gens, rels, W in SATURATION_PRESENTATIONS[:5]:
        assert AlgebraPresentation(gens, rels, W)._pivots
    assert calls == []


@pytest.mark.parametrize(
    "gens, rels, W", [(["x"], ["x*x"], 10), (["x", "y"], ["x*y"], 8)], ids=["xx", "xy"]
)
def test_build_reduces_no_row_at_a_monomial_of_the_ideal(gens, rels, W, monkeypatch):
    # A one-term pivot is a monomial of the ideal: the build drops a term
    # there as the row is formed, so no row it reduces holds that rank.
    rows, seen = [], []
    reduce = jetalg.reduce_row

    def recording(row, pivots):
        rows.append(row)
        seen.extend(r for r in row if len(pivots.get(r, ())) == 1)
        return reduce(row, pivots)

    monkeypatch.setattr(jetalg, "reduce_row", recording)
    assert AlgebraPresentation(gens, rels, W)._pivots
    assert rows and seen == []


def test_one_term_pivot_row_is_deleted_without_reading_its_lead():
    # The elimination step reads a lead's triple only to divide by it; a
    # one-term pivot row holds no other key, so its key is only deleted.
    class Opaque:
        __slots__ = ()

    row = {5: Scalar(3), 1: ONE}
    out = reduce_row(row, {5: {5: Opaque()}})
    assert out == {1: ONE} and out[1] is ONE


def test_rank_maps_wait_for_the_first_reduction_that_needs_them():
    # Building a template, its dims and its gluing check reduce nothing, so
    # they build no monomial-rank map; the first normal form that meets a
    # pivot builds both, and later ones reuse them.
    for gens, rels, W in SATURATION_PRESENTATIONS[:5]:
        P = AlgebraPresentation(gens, rels, W)
        P.dims()
        assert all_pass(check_coequalizer_chain(P, [1, 2, 4], wmax=5)["checks"])
        assert P._maps is None
        assert not P.normal_form(P.relations[0])
        maps = P._maps
        assert maps is not None
        assert not P.normal_form(P.relations[-1])
        assert P._maps is maps


def test_relation_with_another_truncation_bound_is_refused():
    rel = parse_element("x*x + d^3(x)", ["x"], 3)
    with pytest.raises(InputError, match="relation truncation 3 does not match presentation 6"):
        AlgebraPresentation(["x"], [rel], 6)
    assert AlgebraPresentation(["x"], [rel], 3).dims() == [1, 1, 1, 1]


class ScaledPivots:
    """Reference row-echelon form that scales each pivot row to a leading
    coefficient of one when it is added."""

    def __init__(self, key):
        self.pivots = {}
        self.key = key

    def reduce(self, row):
        row = dict(row)
        while True:
            hits = [m for m in row if m in self.pivots]
            if not hits:
                return row
            m = max(hits, key=self.key)
            c = row.pop(m)
            for pm, pv in self.pivots[m].items():
                if pm != m:
                    row[pm] = row.get(pm, Scalar(0)) - c * pv
                    if not row[pm]:
                        del row[pm]

    def add(self, row):
        row = self.reduce(row)
        if row:
            lead = max(row, key=self.key)
            inv = Scalar(1) / row[lead]
            self.pivots[lead] = {m: c * inv for m, c in row.items()}


@pytest.mark.parametrize(
    "gens, rels, W",
    SATURATION_PRESENTATIONS[:5],
    ids=["xy", "uv-vz", "aa-bb", "xdy-ydx", "xz-yy"],
)
def test_unscaled_pivots_give_the_scaled_normal_forms(gens, rels, W):
    # On the five elimination templates, every free monomial up to the
    # bound has the normal form that the scaled reference echelon gives.
    P = AlgebraPresentation(gens, rels, W)
    ref = ScaledPivots(lambda m: (mono_weight(m), m))
    for row in generic_saturation(P):
        ref.add(row)
    to_rank, _ = P._rank_maps()
    assert [to_rank[m] for m in ref.pivots] == list(P._pivots)
    for delta in range(W + 1):
        for mono in P._free_monomials(delta):
            assert P.normal_form(GradedElement({mono: 1}, W)).data == ref.reduce({mono: ONE})


def test_pivots_keep_their_rows_unscaled():
    first, second, third = {1: Scalar(2), 0: ONE}, {5: Scalar(3)}, {1: ONE, 4: Scalar(-1)}
    # The first row meets no pivot, the second is a lone term and the third
    # reduces against the first: each pivot keeps its lead unscaled, and
    # the rows that meet no pivot are stored as they are.
    pivots = pivots_of([first, second, third])
    assert pivots == {
        1: {1: Scalar(2), 0: ONE},
        5: {5: Scalar(3)},
        4: {4: Scalar(-1), 0: Scalar(Fraction(-1, 2))},
    }
    assert pivots[1] is first and pivots[5] is second
    assert third == {1: ONE, 4: Scalar(-1)}
    # A row that meets no pivot is its own remainder.
    free = {2: Scalar(5)}
    assert reduce_row(free, pivots) is free
    assert reduce_row({1: Scalar(4), 5: ONE}, pivots) == {0: Scalar(-2)}


def reference_reduce(pivots, row):
    """The elimination step on Scalar operators, one max per step over
    the row's pivot keys: the reducer's loop before its step moved to
    scalars.reduce_row, kept as an independent reference."""
    if pivots.keys().isdisjoint(row):
        return row
    row = dict(row)
    while True:
        hits = [m for m in row if m in pivots]
        if not hits:
            return row
        m = hits[0] if len(hits) == 1 else max(hits)
        prow = pivots[m]
        c = row.pop(m)
        if len(prow) == 1:
            continue
        c /= prow[m]
        for pm, pv in prow.items():
            if pm == m:
                continue
            acc = row.get(pm)
            nv = -(c * pv) if acc is None else acc - c * pv
            if nv:
                row[pm] = nv
            else:
                row.pop(pm, None)


# Complex, negative and non-unit values over unequal denominators.
KERNEL_VALUES = [
    Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1), Scalar(3), Scalar(Fraction(-3, 2)),
    Scalar(Fraction(2, 3)), Scalar(Fraction(5, 7), Fraction(-1, 2)), Scalar(2, 1),
    Scalar(-1, 3), Scalar(Fraction(1, 6), Fraction(1, 4)), Scalar(0, Fraction(-9, 5)),
]


@pytest.mark.parametrize("seed", range(6))
def test_reduce_row_matches_the_scalar_reference(seed):
    # Seeded random sparse rows over Q(i) on keys 0..79, added to the
    # pivots and to a reference; every fourth row is a combination of
    # two rows added before, which reduces to zero.  Before each add a
    # probe row, the new row with terms on keys -1..-4 that no pivot row
    # holds, is reduced on both sides.
    rng = random.Random(seed)
    keys = list(range(80))
    pivots, ref = {}, {}
    added = []
    for n in range(60):
        if n % 4 == 3 and len(added) >= 2:
            r1, r2 = rng.sample(added, 2)
            c1, c2 = rng.sample(KERNEL_VALUES, 2)
            row = {k: c1 * r1.get(k, 0) + c2 * r2.get(k, 0) for k in sorted({*r1, *r2})}
            row = {k: v for k, v in row.items() if v}
        else:
            row = {k: rng.choice(KERNEL_VALUES) for k in rng.sample(keys, rng.randint(1, 6))}
        probe = {**row, **{-k: rng.choice(KERNEL_VALUES) for k in rng.sample(range(1, 5), 2)}}
        before = list(probe.items())
        out = reduce_row(probe, pivots)
        assert list(probe.items()) == before and all(
            v is w for (_, v), (_, w) in zip(probe.items(), before)
        )
        assert list(out.items()) == list(reference_reduce(ref, probe).items())
        for v in out.values():
            a, b, d = v.triple()
            assert d > 0 and (a or b) and Scalar.from_triple(a, b, d).triple() == (a, b, d)
        assert all(out[k] is v for k, v in probe.items() if k < 0)
        if probe.keys().isdisjoint(pivots):
            assert out is probe
        out = reduce_row(row, pivots)
        reduced = reference_reduce(ref, row)
        assert bool(out) == bool(reduced)
        if out:
            pivots[max(out)] = out
        if reduced:
            ref[max(reduced)] = dict(reduced)
        added.append(row)
        assert list(pivots) == list(ref)
        assert all(list(pivots[k].items()) == list(ref[k].items()) for k in ref)
    # The combinations cancelled to zero.
    assert len(pivots) < len(added)
    # A row that meets no pivot is its own remainder, and one on pivot keys
    # only reduces away.
    free = {-1: Scalar(2), -3: Scalar(0, 1)}
    assert reduce_row(free, pivots) is free
    assert reduce_row({k: c * 3 for k, c in pivots[max(ref)].items()}, pivots) == {}


def test_reduce_row_keeps_its_integers_small_along_a_chain(monkeypatch):
    # Pivot k is 2*e_k + e_(k-1) + ... + e_0, added largest first so none
    # reduces.  Reducing e_n meets pivots n, n-1, ..., 1 in a chain, each
    # step's multiplier built from the one before.  Unless every multiplier
    # is brought to lowest terms, its denominator squares per step (2, 8,
    # 128, 32768, ...) while the values stay near 1/2^n: a 40-step chain
    # would never finish.  Every integer that reaches a gcd is bounded, and
    # the chains grow one step at a time, so a blow-up fails early.
    gcds = []

    def bounded_gcd(*args):
        gcds.append(max(abs(x).bit_length() for x in args))
        assert gcds[-1] < 4096
        return gcd(*args)

    monkeypatch.setattr(scalars, "gcd", bounded_gcd)
    n = 40
    pivots = pivots_of(
        {k: Scalar(2), **{j: ONE for j in range(k - 1, -1, -1)}} for k in range(n, 0, -1)
    )
    assert all(len(pivots[k]) == k + 1 for k in range(1, n + 1))
    for m in range(1, n + 1):
        out = reduce_row({m: ONE}, pivots)
        assert list(out) == [0]
        assert out == reference_reduce(pivots, {m: ONE})
    assert gcds


def test_exact_rank_leaves_its_rows_as_given():
    # The rank's pivots hold the caller's dicts uncopied, so it must write
    # into none of them: values, value objects and key order stay as given,
    # and the same dicts passed again in other orders give the same rank.
    rng = random.Random(3)
    rows = [{k: rng.choice(KERNEL_VALUES) for k in rng.sample(range(12), 3)} for _ in range(6)]
    for r1, r2 in [(rows[0], rows[1]), (rows[2], rows[5]), (rows[1], rows[4])]:
        c1, c2 = rng.sample(KERNEL_VALUES, 2)
        row = {k: c1 * r1.get(k, 0) + c2 * r2.get(k, 0) for k in sorted({*r1, *r2})}
        rows.append({k: v for k, v in row.items() if v})
    before = [list(row.items()) for row in rows]

    def unchanged():
        return all(
            list(row.items()) == items and all(row[k] is v for k, v in items)
            for row, items in zip(rows, before)
        )

    rank = _exact_rank(rows)
    assert rank == 6 and unchanged()
    for order in (rows[::-1], rows[6:] + rows[:6], sorted(rows, key=len)):
        assert _exact_rank(order) == rank and unchanged()


@pytest.mark.parametrize(
    "gens, rels", [(["x"], []), (["x", "y"], ["x*y"])], ids=["free x", "x,y | x*y"]
)
def test_derivative_rows_hold_one_and_keep_their_values(monkeypatch, gens, rels):
    # A multiplicity-one derivative term keeps its coefficient object, so
    # the rows of x0 and of x0*x1 hold the shared ONE itself and the
    # products by them make no Scalar multiplication.
    W = 6
    P = AlgebraPresentation(gens, rels, W)
    x0, x0x1 = (("x", 0),), (("x", 1), ("x", 0))
    for mono in (x0, x0x1):
        row = P._derivative({mono: ONE})
        assert row and all(v is ONE for v in row.values())
    # The same values as a presentation whose derivative coefficients are
    # all fresh Scalar(1) multiples, as before.  The tables fill lazily:
    # P's are read before the patch and Q's under it.
    s = Sampler(11)
    states = [P.gen(g, k) for g in gens for k in range(3)]
    states += [s.element(P) for _ in range(20)]
    q, z = Scalar(0, 1), Scalar(Fraction(1, 2), 1)

    def values(R):
        flow = R.flow(q, z)
        return [(R.derive(a, times=3), R.translation_tower(a), flow(a)) for a in states]

    expected = values(P)
    derive = jetalg.lc_derive
    monkeypatch.setattr(
        jetalg, "lc_derive", lambda data, wmax: lc_scale(derive(data, wmax), Scalar(1))
    )
    Q = AlgebraPresentation(gens, rels, W)
    for mono in (x0, x0x1):
        assert not any(v is ONE for v in Q._derivative({mono: ONE}).values())
    assert values(Q) == expected


def test_first_tower_row_keeps_the_shared_one():
    # T m / 1! is the derivative row itself, so its values are the shared
    # ONE, and the flow, the translation tower and Field multiply by them
    # at no cost.
    P = AlgebraPresentation(["x"], [], 6)
    row = P._monomial_tower((("x", 0),))[0]
    assert row == {(("x", 1),): ONE} and all(v is ONE for v in row.values())
    assert all(v is ONE for v in P.translation_tower(P.gen("x"))[1].data.values())


def test_derive_examples(free_x):
    x = free_x.gen("x")
    assert free_x.derive(x) == free_x.gen("x", 1)
    xx = free_x.multiply(x, x)
    assert free_x.derive(xx) == GradedElement({(("x", 1), ("x", 0)): 2}, 6)
    assert not free_x.derive(free_x.unit())


def test_derive_respects_quotient(quot_x2):
    x = quot_x2.gen("x")
    # 0 = d(x*x) = 2 x1 x0 in the quotient.
    x1x0 = quot_x2.multiply(quot_x2.gen("x", 1), x)
    assert not x1x0


def test_leibniz_sampled(quot_xy):
    s = Sampler(5)
    for _ in range(30):
        a = s.element(quot_xy)
        b = s.element(quot_xy)
        lhs = quot_xy.derive(quot_xy.multiply(a, b))
        rhs = quot_xy.multiply(quot_xy.derive(a), b) + quot_xy.multiply(
            a, quot_xy.derive(b)
        )
        assert lhs == rhs


def test_grading_of_operations(free_xy):
    s = Sampler(9)
    for _ in range(30):
        a = s.homogeneous_element(free_xy)
        b = s.homogeneous_element(free_xy)
        prod = free_xy.multiply(a, b)
        if prod:
            assert prod.weight() == a.weight() + b.weight()
        d = free_xy.derive(a)
        if d:
            assert d.weight() == a.weight() + 1


def test_generator_mismatch(free_x, free_xy):
    y = free_xy.gen("y")
    with pytest.raises(ValueError):
        free_x.multiply(y, y)


def test_undeclared_generators_are_named_sorted(free_x):
    # The check stops at the first undeclared factor, but the message
    # still names every undeclared generator, sorted.
    elem = GradedElement(
        {(("z", 1),): Scalar(1), (("x", 0), ("y", 0)): Scalar(2), (("x", 1),): Scalar(3)}, 6
    )
    with pytest.raises(ValueError, match=r"undeclared generators \['y', 'z'\]$"):
        free_x.multiply(free_x.unit(), elem)


@pytest.mark.parametrize(
    "op",
    [
        lambda P, e: P.multiply(P.unit(), e),
        lambda P, e: P.derive(e),
        lambda P, e: P.translation_tower(e),
        lambda P, e: P.check(e),
    ],
    ids=["multiply", "derive", "translation_tower", "check"],
)
def test_operations_refuse_another_truncation_bound(free_x, op):
    with pytest.raises(ValueError, match="truncation 5 does not match presentation 6"):
        op(free_x, GradedElement.generator("x", 0, 5))


def test_presentation_validation():
    with pytest.raises(ValueError):
        AlgebraPresentation(["x", "x"], [], 6)
    with pytest.raises(ValueError):
        AlgebraPresentation(["x"], ["x*y"], 6)


def test_presentation_json_roundtrip(quot_xy):
    doc = {"generators": ["x", "y"], "relations": ["x*y"], "max_weight": 6}
    again = AlgebraPresentation.from_json(doc)
    assert again == quot_xy
    assert again.dims() == quot_xy.dims()


def test_coordinates_roundtrip(quot_xy):
    s = Sampler(3)
    basis = quot_xy.basis_monomials()
    for _ in range(10):
        a = s.element(quot_xy)
        vec = quot_xy.coordinates(a)
        assert all(c for c in vec.values())
        assert all(0 <= i < len(basis) for i in vec)
        rebuilt = GradedElement({basis[i]: c for i, c in vec.items()}, quot_xy.wmax)
        assert rebuilt == quot_xy.normal_form(a)
    basis.clear()  # a fresh list: the presentation's coordinate index is untouched
    W = quot_xy.wmax
    assert quot_xy.basis_monomials() == [m for d in range(W + 1) for m in quot_xy.weight_basis(d)]
    assert quot_xy.coordinates(quot_xy.unit()) == {0: Scalar(1)}


# -- differential morphisms ----------------------------------------------------


def test_lift_simple_shift():
    src = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], [], 6)
    hom = lift_hom({"x": tgt.gen("y")}, src, tgt)
    assert hom.image_of_variable("x", 2) == tgt.gen("y", 2)
    assert hom.apply(src.gen("x", 2)) == tgt.gen("y", 2)


def test_lift_zero():
    src = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], [], 6)
    hom = lift_hom({"x": tgt.zero()}, src, tgt)
    assert not hom.apply(src.gen("x", 3))
    assert hom.apply(src.unit()) == tgt.unit()


def test_lift_square_image():
    src = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], [], 6)
    y = tgt.gen("y")
    hom = lift_hom({"x": tgt.multiply(y, y)}, src, tgt)
    expected = GradedElement({(("y", 1), ("y", 0)): 2}, 6)
    assert hom.image_of_variable("x", 1) == expected


def test_lift_commutes_with_derivation():
    src = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], [], 6)
    s = Sampler(17)
    y = tgt.gen("y")
    hom = lift_hom({"x": tgt.multiply(y, y) + y}, src, tgt)
    for _ in range(20):
        a = s.element(src)
        assert hom.apply(src.derive(a)) == tgt.derive(hom.apply(a))


def test_lift_uniqueness():
    src = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], [], 6)
    img = tgt.gen("y", 1)
    h1 = lift_hom({"x": img}, src, tgt)
    h2 = AlgebraHom(src, tgt, {("x", k): tgt.derive(img, times=k) for k in range(6)})
    s = Sampler(23)
    for _ in range(20):
        a = s.element(src)
        assert h1.apply(a) == h2.apply(a)


def test_lift_assigns_every_variable_below_the_bound_once():
    src = AlgebraPresentation(["x", "y"], [], 5)
    tgt = AlgebraPresentation(["u"], [], 5)
    f0 = {"x": tgt.parse("u + u*u"), "y": tgt.gen("u", 1)}
    items = list(lift_hom(f0, src, tgt).variable_items())
    assert [v for v, _ in items] == [(g, m) for g in ("x", "y") for m in range(5)]
    for (g, m), img in items:
        assert img == tgt.derive(f0[g], times=m)


def test_lift_rejects_broken_relations(quot_x2):
    tgt = AlgebraPresentation(["y"], [], 6)
    with pytest.raises(LiftError) as err:
        lift_hom({"y": tgt.gen("y")}, AlgebraPresentation(["y"], ["y*y"], 6), tgt)
    assert "y0*y0" in str(err.value)
    # The zero map does respect the relation.
    hom = lift_hom({"x": tgt.zero()}, quot_x2, tgt)
    assert not hom.apply(quot_x2.gen("x"))


def test_lift_into_quotient(quot_x2):
    # x -> x is a valid differential endomorphism of the double-point jets.
    hom = lift_hom({"x": quot_x2.gen("x")}, quot_x2, quot_x2)
    assert hom.apply(quot_x2.gen("x", 1)) == quot_x2.gen("x", 1)


def test_lift_relation_jets_also_vanish(quot_x2):
    free = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], ["y*y"], 6)
    hom = lift_hom({"x": tgt.gen("y")}, quot_x2, tgt)
    # Jets of the relation, computed in the free algebra, all map to zero.
    cur = GradedElement(dict(quot_x2.relations[0].data), 6)
    while cur:
        assert not hom.apply(cur)
        cur = free.derive(cur)


def test_map_images_twist():
    src = AlgebraPresentation(["x"], [], 6)
    tgt = AlgebraPresentation(["y"], [], 6)
    hom = lift_hom({"x": tgt.gen("y")}, src, tgt)
    doubled = AlgebraHom(
        src, tgt, {var: img.scale(Scalar(2)) for var, img in hom.variable_items()}
    )
    a = src.gen("x", 1)
    assert doubled.apply(a) == hom.apply(a).scale(Scalar(2))
    xx = src.multiply(src.gen("x"), src.gen("x"))
    assert doubled.apply(xx) == hom.apply(xx).scale(Scalar(4))
