from itertools import product

import pytest

from lieext import (
    CapabilityError,
    DomainError,
    Field,
    FreeAlgebra,
    ParseError,
    RewriteRule,
    reduce_poly,
    span_closure,
)
from lieext.freepoly import DEPTH_LIMIT, EXPONENT_LIMIT


@pytest.fixture
def xy():
    return FreeAlgebra(Field(0), ("X", "Y"))


@pytest.fixture
def xyv():
    return FreeAlgebra(Field(0), ("X", "Y", "V"))


def words(p):
    return set(p.terms)


# -- parsing -------------------------------------------------------------------

def test_parse_pair_relation_has_four_terms(xy):
    p = xy.parse("X^2*Y - 2*X*Y*X + Y*X^2 + 2*X")
    assert len(p.terms) == 4
    assert p.terms[("X", "X", "Y")] == 1
    assert p.terms[("X", "Y", "X")] == -2
    assert p.terms[("X",)] == 2


def test_parse_zero(xy):
    assert xy.parse("0").is_zero()
    assert xy.parse("X - X").is_zero()


def test_parse_noncommutative_square(xy):
    p = xy.parse("(X+Y)^2")
    assert p == xy.parse("X^2 + X*Y + Y*X + Y^2")
    assert len(p.terms) == 4


def test_parse_juxtaposition(xy):
    assert xy.parse("XYX") == xy.parse("X*Y*X")
    assert xy.parse("2XY") == xy.parse("2*X*Y")


def test_parse_fraction_coefficients(xy):
    p = xy.parse("1/2*X + 1/3*X")
    assert p == xy.parse("5/6*X")


def test_parse_fraction_in_finite_field():
    a = FreeAlgebra(Field(7), ("X",))
    assert a.parse("1/3*X") == a.parse("5*X")  # 3 * 5 = 15 = 1 (mod 7)
    with pytest.raises(ParseError):
        a.parse("1/7*X")  # denominator vanishes


def test_parse_errors_carry_position(xy):
    with pytest.raises(ParseError) as err:
        xy.parse("X + Q")
    assert "Q" in str(err.value)
    with pytest.raises(ParseError):
        xy.parse("X +")
    with pytest.raises(ParseError):
        xy.parse("(X")
    with pytest.raises(ParseError):
        xy.parse("X ^ Y")
    with pytest.raises(ParseError):
        xy.parse("X) + Y")


def test_parse_bindings(xy):
    r = xy.parse("X*Y - Y*X")
    p = xy.parse("H^2", bindings={"H": r})
    assert p == r * r


# -- arithmetic ----------------------------------------------------------------

def test_multiplication_is_noncommutative(xy):
    x, y = xy.symbol("X"), xy.symbol("Y")
    assert x * y != y * x
    assert words(x * y) == {("X", "Y")}


def test_additive_inverse(xy, rng):
    p = xy.parse("3*X*Y - Y + 2")
    assert (p + (-1) * p).is_zero()
    assert (p - p).is_zero()


def test_commutator_square_expansion(xy):
    h = xy.parse("X*Y - Y*X")
    sq = h * h
    assert sq == xy.parse("XYXY - XYYX - YXXY + YXYX")


def test_scalar_and_power_operations(xy):
    x = xy.symbol("X")
    assert x**0 == xy.one()
    assert x**3 == xy.parse("X^3")
    with pytest.raises(DomainError):
        x ** (-1)
    assert (2 * x).terms[("X",)] == 2


def test_mixed_algebra_rejected(xy, xyv):
    with pytest.raises(DomainError):
        xy.symbol("X") + xyv.symbol("X")


# -- printing round trip ----------------------------------------------------------

def test_print_parse_round_trip_on_certificate_corpus(xyv):
    corpus = [
        "X^2*Y - 2*X*Y*X + Y*X^2 + 2*X",
        "-X*Y^2 + 2*Y*X*Y - Y^2*X - 2*Y",
        "Y^2*V - 2*Y*V*Y + V*Y^2 - X",
        "X*V*Y - X*Y*V - V*Y*X + Y*V*X + V",
        "X + 2*Y*V*Y",
        "Y - Y*X*Y",
        "0",
        "1 - X*Y",
    ]
    for text in corpus:
        p = xyv.parse(text)
        assert xyv.parse(str(p)) == p
    # Repeated and alternating runs, and the empty word, print exactly so.
    assert str(xyv.parse("X*X*Y*X^3 - Y*X*Y*X + 1")) == "1/1 - Y*X*Y*X + X^2*Y*X^3"


def test_print_parse_round_trip_random(rng):
    for field in (Field(0), Field(5)):
        a = FreeAlgebra(field, ("X", "Y"))
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                w = tuple(rng.choice("XY") for _ in range(rng.randint(0, 4)))
                c = field.random(rng)
                if c:
                    terms[w] = c
            p = a.zero()
            for w, c in terms.items():
                p = p + c * a.word(w)
            assert a.parse(str(p)) == p


# -- rewrite rules ----------------------------------------------------------------

def test_rule_constructor_enforces_termination(xy):
    zero = xy.zero()
    RewriteRule(xy, ("X", "X"), zero)
    RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X"))
    RewriteRule(xy, ("Y", "X"), xy.parse("X*Y"))       # equal length, lex smaller
    with pytest.raises(DomainError):
        RewriteRule(xy, ("X", "Y"), xy.parse("Y*X"))   # lex bigger
    with pytest.raises(DomainError):
        RewriteRule(xy, ("X",), xy.symbol("X"))        # not decreasing
    with pytest.raises(DomainError):
        RewriteRule(xy, ("X",), xy.parse("X*Y"))       # longer
    with pytest.raises(DomainError):
        RewriteRule(xy, (), xy.zero())
    with pytest.raises(DomainError):
        RewriteRule(xy, ("Q",), xy.zero())


def test_reduce_pair_relation_with_square_rule(xy):
    r1 = xy.parse("X^2*Y - 2*X*Y*X + Y*X^2 + 2*X")
    rules = [RewriteRule(xy, ("X", "X"), xy.zero())]
    assert reduce_poly(r1, rules) == xy.parse("-2*X*Y*X + 2*X")


def test_reduce_left_multiplied_relation(xy):
    r2 = xy.parse("-X*Y^2 + 2*Y*X*Y - Y^2*X - 2*Y")
    rules = [RewriteRule(xy, ("X", "X"), xy.zero()),
             RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X"))]
    assert reduce_poly(xy.symbol("X") * r2, rules) == xy.parse("-X*Y^2*X")


def test_reduce_cubic_identity(xy):
    rules = [
        RewriteRule(xy, ("X", "X"), xy.zero()),
        RewriteRule(xy, ("Y", "Y"), xy.zero()),
        RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X")),
        RewriteRule(xy, ("Y", "X", "Y"), xy.symbol("Y")),
    ]
    h = xy.parse("X*Y - Y*X")
    assert reduce_poly(h**3 - h, rules).is_zero()


def test_reduce_strategy_rule_order_matters_and_is_fixed(xy):
    # both rules match the word XYX at position 0; list order decides
    long_first = [RewriteRule(xy, ("X", "Y", "X"), xy.zero()),
                  RewriteRule(xy, ("X", "Y"), xy.symbol("X"))]
    short_first = list(reversed(long_first))
    w = xy.word(("X", "Y", "X"))
    assert reduce_poly(w, long_first).is_zero()
    assert reduce_poly(w, short_first) == xy.parse("X^2")


def test_reduce_leftmost_position_wins(xy):
    # YX -> X maps YXY to XY (leftmost) rather than YX (rightmost reading)
    rules = [RewriteRule(xy, ("Y", "X"), xy.symbol("X"))]
    assert reduce_poly(xy.word(("Y", "X", "Y")), rules) == xy.parse("X*Y")


def _reduce_termwise(p, rules):
    """Reference reduction: each term rewritten on its own, left to right,
    rules in list order at each position, summed only at the end."""
    stack, out = list(p.terms.items()), p.algebra.zero()
    while stack:
        word, coeff = stack.pop()
        hit = next(((pos, r) for pos in range(len(word)) for r in rules
                    if word[pos:pos + len(r.lhs)] == r.lhs), None)
        if hit is None:
            out = out + coeff * p.algebra.word(word)
            continue
        pos, r = hit
        stack.extend((word[:pos] + w + word[pos + len(r.lhs):], coeff * c)
                     for w, c in r.rhs.terms.items())
    return out


def test_reduce_matches_termwise_rewriting(rng):
    a = FreeAlgebra(Field(7), ("X", "Y", "Z"))

    def random_word(length):
        return tuple(rng.choice(a.alphabet) for _ in range(length))

    def random_poly(words):
        return sum((rng.randint(1, 6) * a.word(w) for w in words), a.zero())

    for _ in range(60):
        rules = []
        for _ in range(rng.randint(1, 4)):
            lhs = random_word(rng.randint(1, 3))
            smaller = [w for w in (random_word(rng.randint(0, len(lhs))) for _ in range(6))
                       if a.word_key(w) < a.word_key(lhs)]
            rules.append(RewriteRule(a, lhs, random_poly(smaller[:rng.randint(0, 3)])))
        p = random_poly(random_word(rng.randint(0, 7)) for _ in range(rng.randint(0, 5)))
        assert reduce_poly(p, rules) == _reduce_termwise(p, rules)


def test_reduce_merges_like_words_before_rewriting(xy):
    # termwise, X^n takes a Fibonacci number of steps; merged, about n^2/4
    rules = [RewriteRule(xy, ("X", "X"), xy.parse("X + Y"))]
    assert reduce_poly(xy.parse("X^16"), rules) == _reduce_termwise(xy.parse("X^16"), rules)
    assert len(reduce_poly(xy.parse("X^64"), rules).terms) == 64


def test_reduce_is_linear_and_idempotent(xy, rng):
    rules = [
        RewriteRule(xy, ("X", "X"), xy.zero()),
        RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X")),
    ]

    def random_poly():
        p = xy.zero()
        for _ in range(rng.randint(0, 4)):
            w = tuple(rng.choice("XY") for _ in range(rng.randint(0, 5)))
            p = p + rng.randint(-3, 3) * xy.word(w)
        return p

    for _ in range(40):
        a, b = random_poly(), random_poly()
        ra, rb = reduce_poly(a, rules), reduce_poly(b, rules)
        assert reduce_poly(a + b, rules) == ra + rb
        assert reduce_poly(5 * a, rules) == 5 * ra
        assert reduce_poly(ra, rules) == ra


def test_verify_reduction_reports_residual(xy):
    rules = [RewriteRule(xy, ("X", "X"), xy.zero())]
    got = reduce_poly(xy.parse("X^2*Y + X"), rules)
    assert got == xy.parse("X")
    assert got - xy.parse("Y") == xy.parse("X - Y")


# -- irreducible words -------------------------------------------------------------

def test_span_closure_of_quadratic_pair(xy):
    rules = [
        RewriteRule(xy, ("X", "X"), xy.zero()),
        RewriteRule(xy, ("Y", "Y"), xy.zero()),
        RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X")),
        RewriteRule(xy, ("Y", "X", "Y"), xy.symbol("Y")),
    ]
    got = span_closure(xy, rules, 6)
    assert got == [(), ("X",), ("Y",), ("X", "Y"), ("Y", "X")]


def test_span_closure_without_rules():
    a = FreeAlgebra(Field(0), ("X",))
    assert span_closure(a, [], 2) == [(), ("X",), ("X", "X")]


def test_span_closure_with_annihilating_rule():
    a = FreeAlgebra(Field(0), ("X",))
    rules = [RewriteRule(a, ("X",), a.zero())]
    assert span_closure(a, rules, 5) == [()]


def test_span_closure_degree_cap(xy):
    with pytest.raises(CapabilityError):
        span_closure(xy, [], 13)


def _square_free_rules(algebra):
    return [RewriteRule(algebra, (s, s), algebra.zero()) for s in algebra.alphabet]


def _pair_rules(algebra):
    return _square_free_rules(algebra) + [
        RewriteRule(algebra, ("X", "Y", "X"), algebra.symbol("X")),
        RewriteRule(algebra, ("Y", "X", "Y"), algebra.symbol("Y")),
    ]


@pytest.mark.parametrize("alphabet, make_rules, degree", [
    (("X", "Y"), _square_free_rules, 6),
    (("X", "Y", "Z"), _square_free_rules, 6),
    (("X", "Y"), _pair_rules, 7),
    (("X", "Y"), lambda a: [RewriteRule(a, ("Y", "X"), a.word(("X", "Y")))], 6),
])
def test_span_closure_matches_brute_force_enumeration(alphabet, make_rules, degree):
    a = FreeAlgebra(Field(0), alphabet)
    rules = make_rules(a)

    def irreducible(w):
        return not any(w[i:i + len(r.lhs)] == r.lhs for r in rules for i in range(len(w)))

    brute = [w for k in range(degree + 1) for w in product(alphabet, repeat=k) if irreducible(w)]
    assert span_closure(a, rules, degree) == brute


def test_span_closure_word_budget():
    a = FreeAlgebra(Field(0), tuple("ABCDEFGH"))
    with pytest.raises(CapabilityError):
        span_closure(a, _square_free_rules(a), 12)  # 8*7^11 words at degree 12 alone
    three = FreeAlgebra(Field(0), ("X", "Y", "Z"))
    assert len(span_closure(three, _square_free_rules(three), 12)) == 1 + 3 * (2**12 - 1)


def test_tokenizer_rejects_numeric_characters_that_are_not_digits(xy):
    for text, position in (("²*X", 0), ("X + 1²", 5), ("1/²", 1), ("X*½", 2)):
        with pytest.raises(ParseError) as err:
            xy.parse(text)
        assert err.value.position == position
        assert "unexpected character" in str(err.value)
    assert xy.parse("٣*X") == xy.parse("3*X")  # a Unicode decimal digit reads as before
    with pytest.raises(ParseError, match="too many digits"):
        xy.parse("1" * 5000 + "*X")


def test_parser_depth_limit(xy):
    deepest = "(" * DEPTH_LIMIT + "X" + ")" * DEPTH_LIMIT
    assert xy.parse(deepest) == xy.symbol("X")
    with pytest.raises(ParseError, match="nested deeper") as err:
        xy.parse("(" + deepest + ")")
    assert err.value.position == DEPTH_LIMIT


def test_exponent_and_product_limits(xy):
    assert xy.parse(f"X^{EXPONENT_LIMIT}") == xy.word("X" * EXPONENT_LIMIT)
    with pytest.raises(CapabilityError, match="exponent"):
        xy.parse(f"X^{EXPONENT_LIMIT + 1}")
    wide = xy.parse(" + ".join("".join(w) for w in product("XY", repeat=10)))
    assert len((wide * xy.symbol("X")).terms) == 1024
    with pytest.raises(CapabilityError, match="product of 1024 by 1024 terms"):
        wide * wide


def test_flat_sum_keeps_the_order_of_pairwise_addition(xy):
    # a word that cancels and comes back is last, as with one + at a time
    p = xy.parse("X + Y - X + X*Y + X")
    assert list(p.terms) == [("Y",), ("X", "Y"), ("X",)]
    assert list((xy.symbol("X") + xy.symbol("Y") - xy.symbol("X") + xy.parse("X*Y")
                 + xy.symbol("X")).terms) == list(p.terms)
