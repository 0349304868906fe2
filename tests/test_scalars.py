import pytest
from fractions import Fraction

from hyperforms.scalars import Cyclotomic, cyclotomic_polynomial, zeta


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree of Phi_24 is phi(24) = 8
    assert len(cyclotomic_polynomial(24)) == 9


def test_sixth_root_relations():
    z = zeta(6)
    assert z ** 6 == 1
    assert z ** 3 == -1
    assert sum(z ** j for j in range(6)) == 0
    # Phi_6(z) = 0
    assert z * z - z + 1 == 0


def test_small_orders_are_rational():
    assert zeta(1) == Fraction(1)
    assert zeta(2) == Fraction(-1)
    assert not isinstance(zeta(2), Cyclotomic)


def test_zeta_order_is_bounded_as_in_the_parser():
    assert zeta(64) ** 64 == 1
    for m in (65, 105, 10 ** 6):
        with pytest.raises(ValueError, match="root of unity order exceeds the limit 64$"):
            zeta(m)


def test_demotion_to_rational():
    z = zeta(6)
    v = z ** 3
    assert isinstance(v, Fraction) and v == -1
    assert isinstance(z * z * z * z * z * z, Fraction)


def test_inverse_and_division():
    z = zeta(6)
    a = z + Fraction(1, 2)
    assert a * a.inverse() == 1
    assert a / a == 1
    assert z ** -1 == z ** 5
    assert (1 / z) * z == 1


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        zeta(6) + zeta(12)


def test_rationals_embed():
    z = zeta(6)
    assert (z + 1) - 1 == z
    assert Fraction(2, 3) * z == z * Fraction(2, 3)
    assert (z * 0) == 0 and isinstance(z * 0, Fraction)


def test_pow_negative_and_large():
    z = zeta(12)
    assert z ** 12 == 1
    assert z ** -5 == z ** 7
    assert z ** 25 == z


def test_str_roundtrippable_shape():
    z = zeta(6)
    assert str(z) == "zeta6"
    assert str(z - 1) == "-1 + zeta6"
    assert str(Fraction(-1, 2) * z) == "-1/2*zeta6"
