from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from jetfact._kernels import lc_derive, lc_mul, lc_scale, mono_weight

from jetfact import jetalg
from jetfact.grading import GradedElement
from jetfact.jetalg import (
    AlgebraHom,
    AlgebraPresentation,
    Echelon,
    LiftError,
    lift_hom,
)
from jetfact.sampling import Sampler
from jetfact.scalars import ONE, Scalar


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
        rows = Echelon()
        for m in basis:
            rows.add(circle.coordinates(hom.apply(GradedElement({m: 1}, W))))
        assert len(rows.pivots) == len(basis) == circle.dims()[delta]
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
    reduce = P._echelon.reduce
    s = Sampler(17)

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
]


@pytest.mark.parametrize(
    "gens, rels, W",
    SATURATION_PRESENTATIONS,
    ids=["xy", "uv-vz", "aa-bb", "xdy-ydx", "xz-yy", "xx", "xx+yy"],
)
def test_saturation_matches_generic_products(gens, rels, W):
    # The saturation rebuilt with generic products: every relation jet times
    # every free monomial that keeps a term within the bound, through
    # lc_mul.  Its echelon must be the construction's, pivot for pivot.
    P = AlgebraPresentation(gens, rels, W)
    rows = Echelon(lambda m: (mono_weight(m), m))
    for rel in P.relations:
        jet = rel.data
        while jet:
            low = min(mono_weight(m) for m in jet)
            for delta in range(W - low + 1):
                for mono in P._free_monomials(delta):
                    rows.add(lc_mul({mono: Scalar(1)}, jet, W))
            jet = lc_derive(jet, W)
    assert rows.pivots == P._echelon.pivots
    assert list(rows.pivots) == list(P._echelon.pivots)


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
