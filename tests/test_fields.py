from fractions import Fraction

import pytest

from lieext import DomainError, Field, FieldMismatch, ParseError


def test_gf5_modular_addition(gf5):
    assert gf5.add(gf5.of(3), gf5.of(4)) == 2


def test_gf7_inverse_of_24_against_euclid_oracle(gf7):
    # brute-force oracle: the inverse of 24 == 3 (mod 7) is the unique b with 3b == 1
    oracle = next(b for b in range(7) if (3 * b) % 7 == 1)
    assert oracle == 5
    assert gf7.div(gf7.one, gf7.of(24)) == oracle


def test_rational_fraction_addition(qq):
    assert qq.add(qq.parse("1/2"), qq.parse("1/3")) == Fraction(5, 6)


def test_scalars_are_canonical(gf5, qq):
    assert gf5.of(-1) == 4
    assert gf5.of(12) == 2
    assert qq.of(2) == Fraction(2)
    # canonical values compare equal iff identical
    assert gf5.of(7) == gf5.of(2)
    # a rational reduces mod p through its numerator and denominator
    assert Field(5).of(Fraction(1, 2)) == 3
    assert Field(5).of(Fraction(-3)) == 2
    assert Field(7).of(Fraction(3, 4)) == 6


def test_division_by_zero_raises(gf5, qq):
    with pytest.raises(DomainError):
        gf5.div(gf5.one, gf5.zero)
    with pytest.raises(DomainError):
        qq.inv(qq.zero)
    with pytest.raises(DomainError):
        Field(5).of(Fraction(1, 5))         # the denominator vanishes mod 5


def test_rational_inverse_is_exact(qq):
    for value in (qq.inv(3), qq.div(1, 3)):
        assert value == Fraction(1, 3)
        assert isinstance(value, Fraction)


def test_small_integers_vanish_in_their_characteristic(gf5):
    # the guard for the exponential coefficients: 1/24 exists away from 2, 3
    assert gf5.of(24) == 4
    for p in (2, 3):
        f = Field(p)
        with pytest.raises(DomainError):
            f.inv(f.of(24 % p))


def test_characteristic_must_be_prime_or_zero():
    for bad in (1, 4, 6, 9, -5):
        with pytest.raises(DomainError):
            Field(bad)
    with pytest.raises(DomainError):
        Field(2**31 + 11)
    with pytest.raises(DomainError, match="2\\^31"):  # bound first: no trial division
        Field(10**18 + 3)
    assert Field(2147483629).p == 2147483629  # largest prime under 2^31 works


def test_field_mismatch_detection(gf5, gf7):
    with pytest.raises(FieldMismatch):
        gf5.require_same(gf7)
    gf5.require_same(Field(5))


def test_strict_parse_gf(gf5):
    assert gf5.parse("4") == 4
    # ASCII digits only: "²".isdigit() holds but int("²") fails
    for bad in ("5", "-1", "7", "a", "1/2", "", "²", "٣", "1²"):
        with pytest.raises(ParseError):
            gf5.parse(bad)


def test_strict_parse_rationals(qq):
    assert qq.parse("-3/2") == Fraction(-3, 2)
    assert qq.parse("0/1") == 0
    for bad in ("3", "2/4", "0/3", "1/0", "1/-2", "-0/1", "x/y", "²/1", "1/²", "-٣/1",
                "1" * 5000 + "/1"):  # the last has more digits than int() converts
        with pytest.raises(ParseError):
            qq.parse(bad)


def test_format_parse_round_trip(gf7, qq, rng):
    for _ in range(200):
        a = gf7.random(rng)
        assert gf7.parse(gf7.format(a)) == a
        b = qq.random(rng)
        assert qq.parse(qq.format(b)) == b


def test_enumeration_and_randomness(gf5, qq, rng):
    assert list(gf5.elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(DomainError):
        qq.elements()
    assert all(0 <= gf5.random(rng) < 5 for _ in range(20))
