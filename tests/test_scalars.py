from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from jetfact.scalars import I, ONE, ZERO, Scalar, frac

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
scalars = st.builds(Scalar, rationals, rationals)


def test_construction_and_equality():
    assert Scalar(1) == 1
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert Scalar("2/3") == Fraction(2, 3)
    assert Scalar(1, 1) != Scalar(1)
    assert I * I == Scalar(-1)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@given(scalars)
def test_inverses(a):
    assert a + (-a) == ZERO
    if a:
        assert a * (ONE / a) == ONE
        assert (a / a) == ONE


@given(scalars)
def test_conjugation(a):
    conj = Scalar(a.re, -a.im)
    assert Scalar(conj.re, -conj.im) == a
    assert a * conj == Scalar(a.abs2())


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_units():
    assert ONE.is_unit() and I.is_unit()
    assert Scalar(Fraction(3, 5), Fraction(4, 5)).is_unit()
    assert not Scalar(2).is_unit()
    assert not Scalar(Fraction(1, 2), Fraction(1, 2)).is_unit()


def test_powers():
    q = Scalar(Fraction(3, 5), Fraction(4, 5))
    assert q**0 == ONE
    assert q**3 == q * q * q
    assert q**-2 == ONE / (q * q)
    assert I**2 == Scalar(-1)


def test_formatting():
    assert str(Scalar(2)) == "2"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(0, -1)) == "-i"
    assert str(Scalar(Fraction(3, 5), Fraction(4, 5))) == "3/5+4/5i"
    assert str(Scalar(1, Fraction(-2))) == "1-2i"
    assert str(ZERO) == "0"


def test_complex_conversion():
    z = complex(Scalar(Fraction(1, 2), Fraction(-3, 4)))
    assert z == 0.5 - 0.75j


def test_frac_parsing():
    assert frac("7/2") == Fraction(7, 2)
    assert frac(3) == 3
    with pytest.raises(TypeError):
        frac(1.5)


# -- the canonical integer-triple representation ------------------------------

big_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=1, max_value=10**30),
)
big_scalars = st.builds(Scalar, big_rationals, big_rationals)


def test_equal_values_by_different_routes_are_equal_and_hash_equal():
    a = Scalar(Fraction(2, 4), Fraction(1, 3))
    b = ONE / 2 + I / 3
    assert a == b and hash(a) == hash(b)
    c = Scalar(Fraction(3, 5), Fraction(4, 5))
    d = c * Scalar(c.re, -c.im) - ONE + c
    assert d == c and hash(d) == hash(c)
    assert {a, b, c, d} == {a, c}
    assert Scalar(2) - 2 == ZERO and hash(Scalar(2) - 2) == hash(ZERO)


def test_parts_are_fractions_in_lowest_terms():
    s = Scalar(Fraction(6, 4), Fraction(-10, 12)) * 3
    for part, expect in ((s.re, Fraction(9, 2)), (s.im, Fraction(-5, 2))):
        assert type(part) is Fraction
        assert part == expect
        assert (part.numerator, part.denominator) == (expect.numerator, expect.denominator)
    assert type(Scalar(7).re) is Fraction and type(Scalar(7).im) is Fraction
    assert type(s.abs2()) is Fraction


def test_division_keeps_the_denominator_positive():
    for divisor in (Scalar(-3), Scalar(Fraction(-2, 7)), Scalar(0, -2), Scalar(0, 5), -I):
        q = Scalar(1, 1) / divisor
        assert q._d > 0
        assert q * divisor == Scalar(1, 1)
    assert (ONE / Scalar(-3)).re == Fraction(-1, 3)
    assert ONE / Scalar(0, -2) == I / 2


@given(big_scalars, big_scalars)
def test_large_values_convert_divide_and_stay_canonical(a, b):
    assert complex(a) == complex(float(a.re), float(a.im))
    results = [a + b, a - b, a * b, -a, Scalar(a.re, -a.im)]
    if b:
        assert a / b * b == a
        results.append(a / b)
    for s in results:
        assert s._d > 0 and gcd(s._a, s._b, s._d) == 1


def test_unit_power_stays_exactly_on_the_circle():
    q = Scalar(3, 4) / 5
    p = q**40
    assert p.is_unit()
    assert p.abs2() == 1
    assert p == q**20 * q**20


def test_from_triple_is_canonical_and_refuses_a_nonpositive_denominator():
    assert Scalar.from_triple(2, 4, 6).triple() == (1, 2, 3)
    assert Scalar.from_triple(0, 0, 5) == Scalar(0)
    assert Scalar.from_triple(-3, 6, 9) == Scalar(Fraction(-1, 3), Fraction(2, 3))
    for d in (0, -2):
        with pytest.raises(ValueError):
            Scalar.from_triple(1, 0, d)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 60))
def test_from_triple_matches_the_fraction_parts(a, b, d):
    assert Scalar.from_triple(a, b, d) == Scalar(Fraction(a, d), Fraction(b, d))
