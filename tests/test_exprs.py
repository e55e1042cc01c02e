import pytest

from jetfact.exprs import ExprError, free_names, parse_element
from jetfact.grading import GradedElement
from jetfact.scalars import I, Scalar


def test_generators_and_jets():
    e = parse_element("x", ["x"], 6)
    assert e == GradedElement.generator("x", 0, 6)
    assert parse_element("d^2(x)", ["x"], 6) == GradedElement.generator("x", 2, 6)
    assert parse_element("d(x)", ["x"], 6) == GradedElement.generator("x", 1, 6)


def test_arithmetic():
    e = parse_element("x*x - y", ["x", "y"], 6)
    assert e.coefficient([("x", 0), ("x", 0)]) == Scalar(1)
    assert e.coefficient([("y", 0)]) == Scalar(-1)
    e = parse_element("2*x + 3/2*y", ["x", "y"], 6)
    assert e.coefficient([("x", 0)]) == Scalar(2)
    assert e.coefficient([("y", 0)]) == Scalar("3/2")


def test_parentheses_and_negation():
    e = parse_element("-(x - y)*2", ["x", "y"], 6)
    assert e.coefficient([("x", 0)]) == Scalar(-2)
    assert e.coefficient([("y", 0)]) == Scalar(2)


def test_imaginary_unit():
    e = parse_element("i*x", ["x"], 6)
    assert e.coefficient([("x", 0)]) == I
    # A declared generator named i shadows the imaginary unit.
    e = parse_element("i*i", ["i"], 6)
    assert e.coefficient([("i", 0), ("i", 0)]) == Scalar(1)


def test_truncation_in_products():
    e = parse_element("d^3(x)*d^3(x)", ["x"], 6)
    assert not e  # weight 8 > 6


def test_errors():
    with pytest.raises(ExprError):
        parse_element("z", ["x"], 6)
    with pytest.raises(ExprError):
        parse_element("x +", ["x"], 6)
    with pytest.raises(ExprError):
        parse_element("d^(x)", ["x"], 6)
    with pytest.raises(ExprError):
        parse_element("x $ y", ["x", "y"], 6)
    with pytest.raises(ExprError):
        parse_element("d^1/2(x)", ["x"], 6)


def test_free_names():
    assert free_names("x*x - y + d^2(z)") == ["x", "y", "z"]
    assert free_names("i*x") == ["x"]
    assert free_names("2 + 3") == []

