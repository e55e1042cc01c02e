import pytest

from jetfact._kernels import mono_weight
from jetfact.grading import GradedElement, format_element
from jetfact.sampling import Sampler
from jetfact.scalars import Scalar


def x(order, wmax=6):
    return GradedElement.generator("x", order, wmax)


def test_weight_bookkeeping():
    a = x(0) + x(1)
    assert a.weights() == [1, 2]
    assert mono_weight((("x", 1), ("x", 0))) == 3


def test_add_identities():
    a = x(0)
    zero = GradedElement.zero(6)
    assert a + zero == a
    assert a + a.scale(Scalar(-1)) == zero
    assert not (a - a)


def test_add_mismatched_truncation():
    with pytest.raises(ValueError):
        x(0, wmax=6) + x(0, wmax=5)


def test_truncation_discards():
    a = GradedElement({(("x", 6),): 1}, 6)
    assert not a  # weight 7 exceeds the bound
    b = GradedElement({(("x", 5),): 1}, 6)
    assert b.weight() == 6


def test_add_assoc_comm_sampled():
    s = Sampler(7)
    from jetfact.jetalg import AlgebraPresentation

    P = AlgebraPresentation(["x"], [], 6)
    for _ in range(25):
        a, b, c = s.element(P), s.element(P), s.element(P)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_equality_is_mapping_equality():
    a = x(0) + x(1)
    b = x(1) + x(0)
    assert a == b
    assert hash(a) == hash(b)


def test_normalization_merges_duplicates():
    # Two unnormalized keys with the same canonical form merge.
    e = GradedElement(
        {(("x", 0), ("x", 1)): Scalar(2), (("x", 1), ("x", 0)): Scalar(1)}, 6
    )
    assert e.coefficient([("x", 1), ("x", 0)]) == Scalar(3)


def test_monomial_canonical_order():
    e = GradedElement({(("x", 0), ("x", 2), ("a", 1)): 1}, 6)
    (mono,) = e.data
    assert mono == (("a", 1), ("x", 2), ("x", 0))


def test_homogeneity_queries():
    assert x(1).is_homogeneous() and x(1).weight() == 2
    assert not (x(0) + x(1)).is_homogeneous()
    with pytest.raises(ValueError):
        (x(0) + x(1)).weight()


def test_formatting():
    assert format_element(GradedElement.zero(6)) == "0"
    assert format_element(GradedElement.one(6)) == "1"
    assert format_element(x(1)) == "x1"
    assert format_element(x(0).scale(Scalar(-1))) == "-x0"
    combo = x(0).scale(Scalar(2)) + x(1).scale(Scalar(-1))
    assert format_element(combo) == "2*x0 - x1"


def test_equality_ignores_the_truncation_bound():
    # Pinned: equality and hashing read the terms, not wmax (see the
    # GradedElement docstring); reports depend on it.
    a, b = x(0, wmax=6), x(0, wmax=3)
    assert a == b and hash(a) == hash(b)
    assert GradedElement.zero(6) == GradedElement.zero(2)
    assert x(0, wmax=6) != x(1, wmax=6)


def test_hash_is_kept_and_agrees_across_constructors():
    # The hash is computed on first use and kept; equal elements built by
    # __init__, _make and arithmetic must still hash alike, in any order.
    m1, m0 = (("x", 1),), (("x", 0),)
    built = GradedElement({m1: 2, m0: Scalar(-1)}, 6)
    made = GradedElement._make({m0: Scalar(-1), m1: Scalar(2)}, 6)
    summed = x(1).scale(Scalar(3)) - x(0) - x(1)
    first = hash(made)
    for e in (built, summed, made):
        assert e == made and hash(e) == first
    assert hash(made) == first == hash(frozenset(made.data.items()))
    zeros = [GradedElement.zero(6), GradedElement({}, 6), x(0) - x(0)]
    assert len({hash(z) for z in zeros}) == 1
