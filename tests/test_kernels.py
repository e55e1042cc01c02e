"""The sparse monomial kernels on fixed examples and random monomials."""

from hypothesis import given, strategies as st

from jetfact import _kernels as k
from jetfact.scalars import ONE, Scalar


def test_mono_ops():
    assert k.mono_weight(()) == 0
    assert k.mono_weight((("x", 0),)) == 1
    assert k.mono_weight((("x", 2), ("y", 0))) == 4
    m = k.mono_mul((("x", 1),), (("x", 0), ("y", 2)))
    assert m == (("x", 1), ("x", 0), ("y", 2))
    assert k.mono_mul((), (("x", 0),)) == (("x", 0),)
    # Leibniz on x0*x0 gives the bumped monomial with multiplicity two.
    assert k.mono_derive((("x", 0), ("x", 0))) == [((("x", 1), ("x", 0)), 2)]
    assert k.mono_derive(()) == []
    # Canonical factor order: generator name ascending, then order descending.
    assert k.factor_key(("x", 2)) < k.factor_key(("x", 0)) < k.factor_key(("y", 5))


def test_lc_ops():
    one = Scalar(1)
    x = {(("x", 0),): one}
    assert k.lc_mul(x, x, 8) == {(("x", 0), ("x", 0)): one}
    assert k.lc_mul(x, x, 1) == {}
    assert k.lc_derive(x, 8) == {(("x", 1),): one}
    assert k.lc_add(x, k.lc_scale(x, Scalar(-1))) == {}


X, Y = (("x", 0),), (("y", 0),)


def test_lc_add_scaled_skips_one_and_drops_cancelling_sums():
    two, three = Scalar(2), Scalar(3)
    row = {X: two, Y: ONE}
    # With c the shared ONE, the row's own value objects are kept.
    out = {}
    k.lc_add_scaled(out, ONE, row)
    assert out == row and out[X] is two and out[Y] is ONE
    # A value that is ONE gives c itself.
    out = {}
    k.lc_add_scaled(out, three, row)
    assert out == {X: Scalar(6), Y: three} and out[Y] is three
    # A sum that cancels is dropped, and the row is not changed.
    out = {X: Scalar(-2), Y: Scalar(5)}
    k.lc_add_scaled(out, ONE, row)
    assert out == {Y: Scalar(6)}
    assert row == {X: two, Y: ONE}


def test_lc_add_leaves_its_operands():
    a, b = {X: ONE}, {X: Scalar(-1), Y: ONE}
    assert k.lc_add(a, b) == {Y: ONE}
    assert a == {X: ONE} and b == {X: Scalar(-1), Y: ONE}
    assert k.lc_add({}, b) == b and k.lc_add({}, b) is not b


def test_selected_backend_reported():
    assert k.BACKEND == "python"


factors = st.tuples(st.sampled_from("xyz"), st.integers(min_value=0, max_value=5))
monomials = st.lists(factors, max_size=5).map(
    lambda fs: tuple(sorted(fs, key=lambda f: (f[0], -f[1])))
)


@given(monomials, monomials)
def test_mono_weight_is_additive(m1, m2):
    prod = k.mono_mul(m1, m2)
    assert k.mono_weight(prod) == k.mono_weight(m1) + k.mono_weight(m2)
    # The product is again canonically sorted.
    assert prod == tuple(sorted(prod, key=lambda f: (f[0], -f[1])))


@given(monomials)
def test_monomial_derivative_raises_weight_by_one(m):
    w = k.mono_weight(m)
    total = 0
    for mono, mult in k.mono_derive(m):
        assert k.mono_weight(mono) == w + 1
        total += mult
    assert total == len(m)
