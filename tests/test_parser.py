import random
from fractions import Fraction

import pytest

from hyperforms.errors import ParseError
from hyperforms.parser import parse_poly
from hyperforms.poly import MultiPoly
from hyperforms.scalars import zeta

XY = ("x", "y")


def test_expanded_square():
    p = parse_poly("x^2 - 2*x*y + y^2", XY)
    q = parse_poly("x - y", XY)
    assert p == q * q


def test_coefficient_merge():
    assert parse_poly("1/2*x + 1/2*x", XY) == parse_poly("x", XY)


def test_negative_exponent_rejected_with_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^-1", XY)
    assert err.value.position == 2


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_poly("x + t", XY)


def test_unbalanced_parentheses():
    with pytest.raises(ParseError):
        parse_poly("(x + y", XY)
    with pytest.raises(ParseError):
        parse_poly("x + y)", XY)


def test_unexpected_character_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x + $", XY)
    assert err.value.position == 4


def test_rational_literals():
    p = parse_poly("-1/2*y^3 + 3", XY)
    assert p.terms[(0, 3)] == Fraction(-1, 2)
    assert p.terms[(0, 0)] == Fraction(3)


def test_zero_denominator():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0", XY)


def test_unary_minus_and_parentheses():
    assert parse_poly("-(x - y)", XY) == parse_poly("y - x", XY)
    assert parse_poly("-x^2", XY) == -parse_poly("x^2", XY)
    assert parse_poly("3*-x", XY) == parse_poly("-3*x", XY)


def test_power_of_parenthesised_expression():
    assert parse_poly("(x + y)^3", XY) == parse_poly("x + y", XY) ** 3


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x", XY)


def test_no_division_operator():
    with pytest.raises(ParseError):
        parse_poly("x/2", XY)


def test_zeta_token():
    p = parse_poly("zeta6^2 - zeta6 + 1", XY)
    assert p.is_zero()  # Phi_6(zeta6) = 0
    q = parse_poly("(1/2 + zeta6)*x", XY)
    assert q.terms[(1, 0)] == zeta(6) + Fraction(1, 2)


def test_zeta_variable_name_reserved():
    with pytest.raises(ValueError, match="reserved"):
        parse_poly("zeta6", ("zeta6",))


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_poly("x^2 + y^2", ("x", "x", "y"))


def test_nesting_depth_is_bounded():
    assert parse_poly("(" * 50 + "x - y" + ")" * 50, XY) == parse_poly("x - y", XY)
    assert parse_poly("-" * 50 + "x", XY) == parse_poly("x", XY)
    for text in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly(text, XY)


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError):
        parse_poly("x + y y", XY)


def test_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_poly("", XY)


def test_print_parse_roundtrip_random():
    rng = random.Random(55)
    pool = ("x", "y", "z", "a", "b")
    for _ in range(300):
        nvars = rng.randint(1, 3)
        variables = tuple(rng.sample(pool, nvars))
        terms = {}
        for _ in range(rng.randint(0, 5)):
            e = tuple(rng.randint(0, 4) for _ in range(nvars))
            c = Fraction(rng.randint(-99, 99), rng.randint(1, 7))
            if rng.random() < 0.25:
                c = c * zeta(6) ** rng.randint(1, 5)
            if c:
                terms[e] = terms.get(e, Fraction(0)) + c
        p = MultiPoly(variables, terms)
        text = str(p)
        back = parse_poly(text, variables)
        assert back == p
        assert str(back) == text


def test_parse_canonical_fixed_point():
    for text in ("0", "1", "-1", "x", "-x", "x^2 + x - 1",
                 "3*x^2*y - 1/2*y^3", "x*y - 1"):
        assert str(parse_poly(text, XY)) == text
