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


def test_zeta_order_is_bounded(monkeypatch):
    assert parse_poly("zeta64", XY) == MultiPoly.constant(zeta(64), XY)
    # zeta(m) builds dense vectors of length m: a refused order must never reach it
    built = []
    monkeypatch.setattr("hyperforms.parser.zeta", built.append)
    for text in ("zeta65", "zeta" + "9" * 5000):
        with pytest.raises(ParseError, match="limit 64") as err:
            parse_poly("x + " + text, XY)
        assert err.value.position == 4
    assert built == []


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


def test_powers_are_bounded():
    assert parse_poly("x^64", XY) == MultiPoly(XY, {(64, 0): 1})
    assert parse_poly("(x^2*y^2)^16", XY) == MultiPoly(XY, {(32, 32): 1})
    assert parse_poly("2^64", XY) == 2 ** 64
    for text, pos in (("(x+y)^2000", 6), ("x^65", 2), ("2^65", 2),
                      ("(x^2)^33", 6), ("((x+y)^64)^64", 11)):
        with pytest.raises(ParseError, match="limit 64") as err:
            parse_poly(text, XY)
        assert err.value.position == pos


def test_long_digit_strings_are_refused_at_their_token():
    # int() of more than 4300 digits raises Python's own error, without a position
    nines = "9" * 5000
    assert parse_poly("x^0064", XY) == parse_poly("x^64", XY)
    assert parse_poly("9" * 4300 + "/" + "7" * 4300, XY).as_scalar() == Fraction(
        int("9" * 4300), int("7" * 4300))
    for text, pos, complaint in (("x^" + nines, 2, "limit 64"), ("x + " + nines, 4, "4300 digits"),
                                 ("x - 1/" + nines, 4, "4300 digits")):
        with pytest.raises(ParseError, match=complaint) as err:
            parse_poly(text, XY)
        assert err.value.position == pos


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


def test_products_obey_the_degree_limit_and_expansions_a_term_budget():
    abcd = ("a", "b", "c", "d")
    abxy = ("a", "b", "x", "y")
    assert parse_poly("x^32*x^32", XY) == MultiPoly(XY, {(64, 0): 1})
    assert parse_poly("(0*x^2)^40*x^64", XY).is_zero()  # zero has degree -1
    # the budget counts the terms of the operands, not the variables they use
    assert parse_poly("(a+b+c+d)^22", abcd) == parse_poly("a+b+c+d", abcd) ** 22  # C(25, 3) = 2300
    assert parse_poly("(a*x + b*y)^7", abxy) == parse_poly("a*x + b*y", abxy) ** 7
    assert (parse_poly("(x - a*y)^3*(x - b*y)^4", abxy)
            == parse_poly("x - a*y", abxy) ** 3 * parse_poly("x - b*y", abxy) ** 4)
    assert parse_poly("(x+y)^64", XY) == parse_poly("x+y", XY) ** 64
    sums = "*".join(["(x+y)^64"] * 100)
    for text, variables, pos, complaint in (
            ("x^64*x", XY, 4, "product exceeds the degree limit 64"),
            (sums, XY, 8, "product exceeds the degree limit 64"),
            ("(a+b+c+d)^64", abcd, 10, "power exceeds the term limit 2500"),
            ("(a+b+c+d)^23", abcd, 10, "power exceeds the term limit 2500"),  # C(26, 3) = 2600
            ("(a+b+c)^9*(b+c+d)^9", abcd, 9, "product exceeds the term limit 2500")):  # 55 * 55
        with pytest.raises(ParseError, match=complaint) as err:
            parse_poly(text, variables)
        assert err.value.position == pos


def test_printed_polynomials_parse_without_polynomial_arithmetic(monkeypatch):
    # printed text has no product or power of a sum: every term folds into one
    # monomial, and the result is the one polynomial built
    rng = random.Random(25)
    polys = []
    for _ in range(200):
        variables = tuple(rng.sample(("x", "y", "z"), rng.randint(1, 3)))
        terms = {}
        for _ in range(rng.randint(0, 6)):
            c = Fraction(rng.randint(-99, 99), rng.choice((1, 1, rng.randint(1, 9))))
            if rng.random() < 0.25:
                c = c * zeta(6) ** rng.randint(1, 5)
            terms[tuple(rng.randint(0, 5) for _ in variables)] = c
        polys.append(MultiPoly(variables, terms))

    def refuse(*args):
        raise AssertionError("polynomial arithmetic while parsing printed text")

    for name in ("__mul__", "__add__", "__pow__", "constant", "variable"):
        monkeypatch.setattr(MultiPoly, name, refuse)
    for p in polys:
        back = parse_poly(str(p), p.vars)
        assert back == p and str(back) == str(p)
