from fractions import Fraction

import pytest

from jetfact.diskgeom import (
    BasisElement,
    Disk,
    GroupElement,
    act,
    compare_distance,
    connected_components,
    contains,
    decompose,
    disjoint,
)
from jetfact.sampling import Sampler
from jetfact.scalars import I, Scalar


def D(c, r):
    return Disk(Scalar.coerce(c) if not isinstance(c, Scalar) else c, r)


def test_contains_examples():
    assert contains(D(0, 1), D(0, 3))
    assert contains(D(2, 1), D(0, 3))
    assert not contains(D(2, 2), D(0, 3))
    assert contains(D(5, 100), Disk(Scalar(0), None))
    assert not contains(Disk(Scalar(0), None), D(0, 3))
    # Equal disks contain each other.
    assert contains(D(1, 2), D(1, 2))


def test_disjoint_examples():
    assert disjoint(D(0, 1), D(2, 1))  # tangent open disks share no points
    assert not disjoint(D(0, 1), D(1, 1))
    assert disjoint(D(0, 1), D(3, 1))
    assert not disjoint(Disk(Scalar(0), None), D(5, 1))


def test_disk_validation():
    with pytest.raises(ValueError):
        Disk(Scalar(0), Fraction(-1))
    with pytest.raises(ValueError):
        Disk(Scalar(0), 0)


def test_basis_element_sorts_and_validates():
    d1, d2 = D(3, Fraction(1, 2)), D(0, Fraction(1, 2))
    L = BasisElement([d1, d2])
    assert L.disks == (d2, d1)
    assert L.order == (1, 0)
    with pytest.raises(ValueError):
        BasisElement([D(0, 1), D(1, 1)])
    assert len(BasisElement()) == 0


def test_decompose_examples():
    L = BasisElement([D(0, Fraction(1, 4)), D(1, Fraction(1, 4)), D(5, Fraction(1, 4))])
    M = BasisElement([D(0, 2), D(5, 2)])
    assert decompose(L, M) == [[0, 1], [2]]
    assert decompose(L, L) == [[0], [1], [2]]
    assert decompose(BasisElement(), M) == [[], []]
    with pytest.raises(ValueError):
        decompose(BasisElement([D(20, 1)]), M)


def test_act_examples():
    assert act(GroupElement.identity(), D(2, 1)) == D(2, 1)
    assert act(GroupElement(I, 0), D(2, 1)) == Disk(Scalar(0, 2), 1)
    q = Scalar(Fraction(3, 5), Fraction(4, 5))
    assert act(GroupElement(q, 1), D(0, 1)) == D(1, 1)


def test_group_element_laws():
    s = Sampler(3)
    for _ in range(20):
        g, h = s.group_element(), s.group_element()
        z = s.scalar()
        assert g.apply(h.apply(z)) == g.compose(h).apply(z)
    with pytest.raises(ValueError):
        GroupElement(Scalar(2), 0)


def test_predicates_are_isometry_invariant():
    s = Sampler(5)
    for _ in range(25):
        g = s.group_element()
        d1 = D(s.scalar(), abs(s.fraction()) + 1)
        d2 = D(s.scalar(), abs(s.fraction()) + 1)
        assert disjoint(d1, d2) == disjoint(act(g, d1), act(g, d2))
        assert contains(d1, d2) == contains(act(g, d1), act(g, d2))


def test_decompose_commutes_with_action():
    s = Sampler(7)
    for _ in range(15):
        L, M = s.nested_config(2, [2, 1])
        g = s.group_element()
        direct = decompose(L, M)
        moved = decompose(act(g, L), act(g, M))
        # The canonical disk order may permute under the action; compare as
        # partitions of relabeled indices.
        perm_l = _relabel(L, act(g, L), g)
        perm_m = _relabel(M, act(g, M), g)
        relabeled = [sorted(perm_l[i] for i in direct[j]) for j in range(len(M))]
        reordered = [relabeled[perm_m.index(j)] for j in range(len(M))]
        moved_sorted = [sorted(ix) for ix in moved]
        assert moved_sorted == [sorted(ix) for ix in reordered]


def _relabel(L, Lg, g):
    """perm[i] = index in Lg of the image of the i-th disk of L."""
    return [Lg.disks.index(act(g, d)) for d in L.disks]


def test_union_closure():
    L = BasisElement([D(0, 1)])
    M = BasisElement([D(5, 1)])
    U = L.union(M)
    assert len(U) == 2
    with pytest.raises(ValueError):
        L.union(BasisElement([D(1, 1)]))


def test_subset_of():
    L = BasisElement([D(0, Fraction(1, 4))])
    M = BasisElement([D(0, 2), D(5, 2)])
    assert L.subset_of(M)
    assert not M.subset_of(L)


def test_connected_components_examples():
    disks = [D(0, 1), D(1, 1), D(5, 1)]
    assert connected_components(disks) == [[0, 1], [2]]
    assert connected_components([D(0, 1)]) == [[0]]
    assert connected_components([]) == []
    # A chain of overlaps is one component.
    chain = [D(0, 1), D(1, 1), D(2, 1)]
    assert connected_components(chain) == [[0, 1, 2]]


def test_json_roundtrip():
    d = Disk(Scalar(Fraction(1, 2), Fraction(-3, 4)), Fraction(2, 7))
    assert Disk.from_json({"c": ["1/2", "-3/4"], "r": "2/7"}) == d
    plane = Disk(Scalar(0), None)
    assert Disk.from_json({"c": ["0", "0"], "r": "inf"}) == plane
    L = BasisElement([D(0, 1), D(3, 1)])
    doc = [{"c": ["0", "0"], "r": "1"}, {"c": ["3", "0"], "r": "1"}]
    assert BasisElement.from_json(doc) == L


# -- the integer predicates against the Fraction formulas ---------------------

_UNITS = [
    Scalar(1),
    I,
    Scalar(-1),
    Scalar(Fraction(3, 5), Fraction(4, 5)),
    Scalar(Fraction(-5, 13), Fraction(12, 13)),
    Scalar(Fraction(8, 17), Fraction(-15, 17)),
]


def _dist2(z, w):
    """|z - w|**2 from the Fraction parts."""
    return (z.re - w.re) ** 2 + (z.im - w.im) ** 2


def _fraction_contains(inner, outer):
    if outer.is_plane:
        return True
    if inner.is_plane:
        return False
    if outer.radius < inner.radius:
        return False
    gap = outer.radius - inner.radius
    return _dist2(inner.center, outer.center) <= gap * gap


def _fraction_disjoint(d1, d2):
    if d1.is_plane or d2.is_plane:
        return False
    s = d1.radius + d2.radius
    return _dist2(d1.center, d2.center) >= s * s


def _boundary_pairs(seed, count):
    """Seeded disk pairs, many of them exactly tangent or internally tangent.

    Centers and radii have mixed denominators; the second center is the
    first moved by an exact distance t along a Pythagorean unit direction,
    so |c1 - c2| = t exactly, and the radii are set from t (sum t, difference
    t, or equal), then sometimes nudged off the boundary.
    """
    rng = Sampler(seed).rng

    def fraction():
        return Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 5, 6, 7, 12]))

    def radius():
        return Fraction(rng.randint(1, 30), rng.choice([1, 2, 3, 4, 7, 9]))

    for _ in range(count):
        c1 = Scalar(fraction(), fraction())
        t = radius()
        c2 = c1 + rng.choice(_UNITS) * t
        kind = rng.randrange(5)
        if kind == 0:  # externally tangent: r1 + r2 = t
            r1 = t * Fraction(rng.randint(1, 6), 7)
            r2 = t - r1
        elif kind == 1:  # internally tangent: r2 - r1 = t
            r1 = radius()
            r2 = r1 + t
        elif kind == 2:  # equal radii
            r1 = r2 = radius()
        elif kind == 3:  # same center
            c2 = c1
            r1, r2 = radius(), radius()
        else:
            r1, r2 = radius(), radius()
        if rng.random() < 0.3:
            r2 += Fraction(rng.choice([-1, 1]), rng.choice([97, 1000, 10**6]))
        if r2 > 0:
            yield Disk(c1, r1), Disk(c2, r2)


def test_integer_predicates_match_fraction_formulas():
    plane = Disk(Scalar(0), None)
    boundary = 0
    for d1, d2 in _boundary_pairs(11, 600):
        for a, b in ((d1, d2), (d2, d1), (d1, plane), (plane, d1), (d1, d1)):
            assert contains(a, b) == _fraction_contains(a, b), (a, b)
            assert disjoint(a, b) == _fraction_disjoint(a, b), (a, b)
        gap = abs(d1.radius - d2.radius)
        dist2 = _dist2(d1.center, d2.center)
        boundary += dist2 in (gap * gap, (d1.radius + d2.radius) ** 2)
    # The equality on the boundary decides a good share of the cases.
    assert boundary > 100


def test_compare_distance_has_the_sign_of_the_fraction_difference():
    s = Sampler(13)
    for _ in range(300):
        z, w = s.scalar(), s.scalar()
        r = Fraction(s.rng.randint(0, 20), s.rng.choice([1, 3, 5, 13]))
        if s.rng.random() < 0.3:  # w exactly on the circle of radius r about z
            w = z + s.rng.choice(_UNITS) * r
        diff = _dist2(z, w) - r * r
        got = compare_distance(z, w, r.numerator, r.denominator)
        assert (got > 0) - (got < 0) == (diff > 0) - (diff < 0)
