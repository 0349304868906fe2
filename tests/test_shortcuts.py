"""The parser's one token scan and the cyclotomic sums without a reduction, against the
routes they replaced: the per-token oracle on text with any whitespace, non-ASCII digits
and characters outside the grammar, and ``Cyclotomic._make`` on every sum."""

from fractions import Fraction
from operator import add

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hyperforms.errors import ParseError  # noqa: E402
from hyperforms.parser import parse_poly  # noqa: E402
from hyperforms.scalars import MAX_ORDER, Cyclotomic, zeta  # noqa: E402

from parser_oracle import parse_poly as oracle_parse  # noqa: E402

# tabs, newlines, a no-break space and an em space all separate tokens; '٣' and '٤' are
# decimal digits to the scan and to int() alike
_gaps = st.sampled_from(["", "", " ", "\t", "\n", "\u00a0", "\u2003", " \t\n"])
_atoms = st.sampled_from(["0", "1", "3", "12", "007", "٣", "1/2", "1 /\t3", "٣/٤",
                          "5/0", "x", "y", "zeta6", "zeta3", "zeta1", "zeta65", "t"])
_exponents = st.sampled_from(["0", "1", "2", "3", "٣", "64", "65", "1/2", "x", "-1"])
# characters outside the grammar, '/' outside a number among them
_bad = st.sampled_from(["/", "$", "é", "²", ".", "!"])


@st.composite
def _sums(draw, depth=2):
    gap = lambda: draw(_gaps)  # noqa: E731
    text = ""
    for i in range(draw(st.integers(1, 3))):
        if i:
            text += gap() + draw(st.sampled_from(["+", "-"])) + gap()
        for j in range(draw(st.integers(1, 3))):
            if j:
                text += gap() + "*" + gap()
            text += "-" * draw(st.sampled_from([0, 0, 1, 2])) + gap()
            if depth and draw(st.integers(0, 2)) == 0:
                text += "(" + gap() + draw(_sums(depth - 1)) + gap() + ")"
            else:
                text += draw(_atoms)
            if draw(st.integers(0, 3)) == 0:
                text += gap() + "^" + gap() + draw(_exponents)
    return text


@st.composite
def _texts(draw):
    text = draw(_sums())
    i = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "token", "bad", "bad after an error"]))
    if edit == "token":  # mostly a grammar error
        text = text[:i] + draw(st.sampled_from(["(", ")", "+", "*", "^", "x y", "2 3"])) + text[i:]
    elif edit == "bad":
        text = text[:i] + draw(_bad) + text[i:]
    elif edit == "bad after an error":  # the character is refused before the grammar is read
        text = text[:i] + "* *" + text[i:] + draw(_gaps) + draw(_bad)
    return text


def _outcome(parse, text):
    try:
        p = parse(text, ("x", "y"))
    except (ParseError, ValueError) as exc:  # ValueError: mixed cyclotomic orders
        return type(exc), str(exc), getattr(exc, "position", None)
    return p.vars, {e: (type(c), c) for e, c in p.terms.items()}


@settings(max_examples=200, deadline=None, database=None)
@given(_texts())
@example("x\t+\ny * x^٣")
@example("٣/٤*x - 1 /\t2")
@example("x / y")
@example("x + * y $")
@example("(x + ) é")
@example("zeta6 * zeta3")
@example("zeta6*(x + zeta3*y)*x^65")
@example("0^0 - (x - x)^0*x")
def test_token_scan_matches_the_per_token_oracle(text):
    # the same polynomial with the same coefficient types, or the same error at the
    # same position
    assert _outcome(parse_poly, text) == _outcome(oracle_parse, text)


def _by_make(a, b):
    """a + b the way it was computed before: embedded, added and reduced by ``_make``."""
    c = a if isinstance(a, Cyclotomic) else b
    return Cyclotomic._make(c.order, list(map(add, c._embed(a).coeffs, c._embed(b).coeffs)))


def _typed(x):
    return type(x), x, [type(c) for c in x.coeffs] if isinstance(x, Cyclotomic) else None


_rationals = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6))


@st.composite
def _cyclotomic_sums(draw):
    m = draw(st.integers(3, MAX_ORDER))
    # a vector longer than deg(Phi_m) is reduced by _make first; it may come out rational
    ks = st.lists(_rationals, min_size=2, max_size=m + 2)
    a = Cyclotomic._make(m, draw(ks))
    if not isinstance(a, Cyclotomic):
        a = zeta(m)
    form = draw(st.sampled_from(["rational", "random", "cancelling"]))
    if form == "rational":
        b = draw(_rationals)
    elif form == "random":
        b = Cyclotomic._make(m, draw(ks))
    else:  # -a plus a rational or a scaled a, so the sum demotes or keeps its order
        b = -a + draw(_rationals) if draw(st.booleans()) else -a * draw(_rationals) + zeta(m)
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None, database=None)
@given(_cyclotomic_sums())
def test_cyclotomic_sums_match_the_reduced_route(pair):
    a, b = pair
    assert _typed(a + b) == _typed(_by_make(a, b))


def test_zeta_is_cached_and_small_orders_stay_rational():
    assert zeta(1) == Fraction(1) and type(zeta(1)) is Fraction
    assert zeta(2) == Fraction(-1) and type(zeta(2)) is Fraction
    assert all(zeta(m) is zeta(m) for m in range(1, MAX_ORDER + 1))
