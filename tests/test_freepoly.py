import re
from importlib import resources
from itertools import chain, groupby, product

import pytest
from hypothesis import given, settings, strategies as st

from lieext import (
    CapabilityError,
    DomainError,
    Field,
    FreeAlgebra,
    ParseError,
    RewriteRule,
    certscript,
    freepoly,
    reduce_poly,
    span_closure,
)
from lieext.freepoly import DEPTH_LIMIT, EXPONENT_LIMIT, PRODUCT_LIMIT, FreePoly


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


def test_parse_refuses_a_binding_from_another_algebra(xy, xyv):
    foreign = {"H": xyv.parse("V*X")}
    for text in ("H", "X*H", "H*X"):
        with pytest.raises(DomainError, match="different free algebras"):
            xy.parse(text, foreign)


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
    assert x**0 == xy.const(1)
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
            p = a.const(0)
            for w, c in terms.items():
                p = p + c * a.word(w)
            assert a.parse(str(p)) == p


# -- rewrite rules ----------------------------------------------------------------

def test_rule_constructor_enforces_termination(xy):
    zero = xy.const(0)
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
        RewriteRule(xy, (), xy.const(0))
    with pytest.raises(DomainError):
        RewriteRule(xy, ("Q",), xy.const(0))


def test_reduce_pair_relation_with_square_rule(xy):
    r1 = xy.parse("X^2*Y - 2*X*Y*X + Y*X^2 + 2*X")
    rules = [RewriteRule(xy, ("X", "X"), xy.const(0))]
    assert reduce_poly(r1, rules) == xy.parse("-2*X*Y*X + 2*X")


def test_reduce_left_multiplied_relation(xy):
    r2 = xy.parse("-X*Y^2 + 2*Y*X*Y - Y^2*X - 2*Y")
    rules = [RewriteRule(xy, ("X", "X"), xy.const(0)),
             RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X"))]
    assert reduce_poly(xy.symbol("X") * r2, rules) == xy.parse("-X*Y^2*X")


def test_reduce_cubic_identity(xy):
    rules = [
        RewriteRule(xy, ("X", "X"), xy.const(0)),
        RewriteRule(xy, ("Y", "Y"), xy.const(0)),
        RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X")),
        RewriteRule(xy, ("Y", "X", "Y"), xy.symbol("Y")),
    ]
    h = xy.parse("X*Y - Y*X")
    assert reduce_poly(h**3 - h, rules).is_zero()


def test_reduce_strategy_rule_order_matters_and_is_fixed(xy):
    # both rules match the word XYX at position 0; list order decides
    long_first = [RewriteRule(xy, ("X", "Y", "X"), xy.const(0)),
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
    stack, out = list(p.terms.items()), p.algebra.const(0)
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
        return sum((rng.randint(1, 6) * a.word(w) for w in words), a.const(0))

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
        RewriteRule(xy, ("X", "X"), xy.const(0)),
        RewriteRule(xy, ("X", "Y", "X"), xy.symbol("X")),
    ]

    def random_poly():
        p = xy.const(0)
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
    rules = [RewriteRule(xy, ("X", "X"), xy.const(0))]
    got = reduce_poly(xy.parse("X^2*Y + X"), rules)
    assert got == xy.parse("X")
    assert got - xy.parse("Y") == xy.parse("X - Y")


# -- irreducible words -------------------------------------------------------------

def test_span_closure_of_quadratic_pair(xy):
    rules = [
        RewriteRule(xy, ("X", "X"), xy.const(0)),
        RewriteRule(xy, ("Y", "Y"), xy.const(0)),
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
    rules = [RewriteRule(a, ("X",), a.const(0))]
    assert span_closure(a, rules, 5) == [()]


def test_span_closure_degree_cap(xy):
    with pytest.raises(CapabilityError):
        span_closure(xy, [], 13)


def _square_free_rules(algebra):
    return [RewriteRule(algebra, (s, s), algebra.const(0)) for s in algebra.alphabet]


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


# -- the pairwise reference parser ---------------------------------------------------

_REF_TOKEN = re.compile(r"(\d+)/(\d+)|(\d+)|([^\W\d_]\w*)|([-+*^()])|(\S)")


def _ref_collect(field, pairs):
    out = {}
    for w, c in pairs:
        c = field.add(out[w], c) if w in out else c
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    return out


def _ref_mul(a, b):
    """Every pair of terms expanded, then collected: no short cut."""
    left, right, f = a.terms, b.terms, a.algebra.field
    n, m = len(left), len(right)
    if m * sum(len(w) + 1 for w in left) + n * sum(map(len, right)) > PRODUCT_LIMIT:
        raise CapabilityError(f"a product of {n} by {m} terms is over the limit of "
                              f"{PRODUCT_LIMIT} terms plus letters")
    return FreePoly(a.algebra, _ref_collect(f, ((w1 + w2, f.mul(c1, c2))
                                                for w1, c1 in left.items()
                                                for w2, c2 in right.items())))


class _ReferenceParser:
    """One FreePoly per atom, one expanded and collected product per "*" or
    juxtaposition, a power as repeated products from 1, and a flat sum
    collected once; every token keeps its position."""

    def __init__(self, algebra, text, bindings):
        self.algebra, self.text, self.bindings = algebra, text, bindings
        self.tokens = []
        for m in _REF_TOKEN.finditer(text):
            num, den, integer, word, op, _ = m.groups()
            i = m.start()
            if word and word[0].isalpha():
                self.tokens.append(("word", word, i))
            elif op:
                self.tokens.append((op, op, i))
            elif num or integer:
                try:
                    value = (int(num), int(den)) if num else int(integer)
                except ValueError:
                    raise ParseError("number has too many digits", position=i) from None
                self.tokens.append(("frac" if num else "int", value, i))
            else:
                raise ParseError(f"unexpected character {text[i]!r}", position=i)
        self.tokens.append(("end", None, len(text)))
        self.cursor = self.depth = 0

    def peek(self):
        return self.tokens[self.cursor][0]

    def next(self):
        self.cursor += 1
        return self.tokens[self.cursor - 1]

    def parse(self):
        poly = self.expr()
        if self.peek() != "end":
            raise ParseError("trailing input", position=self.tokens[self.cursor][2])
        return poly

    def expr(self):
        summands = []
        sign = self.next()[0] if self.peek() == "-" else "+"
        while True:
            term = self.term()
            summands.append((term if sign == "+" else -term).terms.items())
            if self.peek() not in ("+", "-"):
                return FreePoly(self.algebra,
                                _ref_collect(self.algebra.field, chain.from_iterable(summands)))
            sign = self.next()[0]

    def term(self):
        acc = self.factor()
        while self.peek() in ("*", "int", "frac", "word", "("):
            if self.peek() == "*":
                self.next()
            acc = _ref_mul(acc, self.factor())
        return acc

    def factor(self):
        base = self.atom()
        if self.peek() != "^":
            return base
        self.next()
        kind, n, pos = self.next()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer", position=pos)
        if n > EXPONENT_LIMIT:
            raise CapabilityError(f"exponent {n} is over the limit of {EXPONENT_LIMIT}")
        acc = self.algebra.const(1)
        for _ in range(n):
            acc = _ref_mul(acc, base)
        return acc

    def atom(self):
        kind, value, pos = self.next()
        a, f = self.algebra, self.algebra.field
        if kind == "int":
            return a.const(value)
        if kind == "frac":
            if not f.of(value[1]):
                raise ParseError(f"denominator {value[1]} vanishes in this field", position=pos)
            return a.const(f.div(f.of(value[0]), f.of(value[1])))
        if kind == "(":
            if self.depth == DEPTH_LIMIT:
                raise ParseError(f"parentheses nested deeper than {DEPTH_LIMIT}", position=pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            k, _, p2 = self.next()
            if k != ")":
                raise ParseError("expected ')'", position=p2)
            return inner
        if kind == "word":
            if value in self.bindings:
                return self.bindings[value]
            if value in a.index:
                return a.symbol(value)
            if all(c in a.index for c in value):
                return a.word(tuple(value))
            raise ParseError(f"unknown symbol {value!r}", position=pos)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input",
                         position=pos)


def _reference_parse(algebra, text, bindings=None):
    return _ReferenceParser(algebra, text, bindings or {}).parse()


def _outcome(parse, algebra, text, bindings=None):
    """The terms in order, or the error's type, message and position."""
    try:
        return list(parse(algebra, text, bindings).terms.items())
    except (ParseError, CapabilityError) as e:
        return type(e), str(e), getattr(e, "position", None)


def _agree(algebra, text, bindings=None):
    got = _outcome(FreeAlgebra.parse, algebra, text, bindings)
    assert got == _outcome(_reference_parse, algebra, text, bindings), text
    return got


# the script lines that hold expressions: (pattern, its expression groups)
_EXPRESSION_LINES = ((certscript._RE_LET, (2,)), (certscript._RE_RULE, (1, 2)),
                     (certscript._RE_ASSERT_REDUCE, (1, 2)), (certscript._RE_ASSERT_SPAN, (2,)))


def _shipped_expressions():
    """(symbols, [(expression, the name a let binds to it, or None)]) of each
    shipped script."""
    scripts = []
    for name in ("lemma22.cert", "prop32.cert", "thm23_span.cert"):
        text = resources.files("lieext").joinpath("certs", name).read_text(encoding="utf-8")
        symbols, exprs = None, []
        for _, line in certscript._logical_lines(text):
            if line.startswith("symbols"):
                symbols = tuple(line.split()[1:])
            for pattern, groups in _EXPRESSION_LINES:
                m = pattern.match(line)
                if m:
                    let = m.group(1) if pattern is certscript._RE_LET else None
                    exprs += [(m.group(g), let) for g in groups]
                    break
        scripts.append((symbols, exprs))
    return scripts


SHIPPED = _shipped_expressions()
ORACLE_FIELDS = (Field(5), Field(7), Field(0))


@pytest.mark.parametrize("field", [Field(0), Field(5), Field(7), Field(11)], ids=repr)
def test_parse_matches_the_pairwise_reference_on_the_shipped_scripts(field):
    count = 0
    for symbols, exprs in SHIPPED:
        algebra, bindings = FreeAlgebra(field, symbols), {}
        for text, name in exprs:
            assert isinstance(_agree(algebra, text, bindings), list)
            count += 1
            if name is not None:
                bindings[name] = algebra.parse(text, bindings)
    assert count == 53


def _oracle_algebra(field):
    a = FreeAlgebra(field, ("X", "Y"))
    return a, {"A": a.parse("X - Y"), "B": a.parse("2*X*Y + 1/3"), "Z": a.const(0)}


ATOMS = st.sampled_from(["X", "Y", "XY", "YXX", "0", "1", "2", "5", "12", "1/2", "2/3", "0/4",
                         "A", "B", "Z"])
VANISHING = st.sampled_from(["3/5", "4/7"])   # denominators that vanish mod 5 or 7


@st.composite
def expressions(draw, depth=2):
    """Sums of terms of factors: symbols, runs of them, juxtaposed words,
    bindings (Z is zero), integers and fractions (some zero, some with a
    denominator that vanishes mod 5 or 7), parenthesized sums and powers."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        text = ""
        for k in range(draw(st.integers(1, 5))):
            if k:
                text += draw(st.sampled_from(["*", "*", " * ", " "]))
            pick = draw(st.integers(0, 39))
            if depth and pick < 8:
                text += "(" + draw(expressions(depth - 1)) + ")"
                text += draw(st.sampled_from(["", "", "", "^0", "^1", "^2"]))
            else:
                text += draw(VANISHING if pick == 8 else ATOMS)
                text += draw(st.sampled_from(["", "", "", "^0", "^1", "^2", "^3"]))
        terms.append(text)
    text = draw(st.sampled_from(["", "", "-"])) + terms[0]
    for t in terms[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + t
    return text


@st.composite
def mutated(draw, texts):
    """``texts`` with characters inserted, deleted or replaced."""
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        new = draw(st.sampled_from(list("()^*+-/ 0X") + ["Q", "²", "½", "^70", "^-1"]))
        cut = draw(st.integers(0, 1))
        text = text[:i] + draw(st.sampled_from([new, ""])) + text[i + cut:]
    return text


ORACLE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@ORACLE
@given(st.sampled_from(ORACLE_FIELDS), expressions())
def test_parse_matches_the_pairwise_reference_on_generated_expressions(field, text):
    algebra, bindings = _oracle_algebra(field)
    _agree(algebra, text, bindings)


@ORACLE
@given(st.sampled_from(ORACLE_FIELDS), mutated(expressions()))
def test_parse_matches_the_pairwise_reference_on_malformed_expressions(field, text):
    algebra, bindings = _oracle_algebra(field)
    _agree(algebra, text, bindings)


SHIPPED_TEXTS = [(symbols, text) for symbols, exprs in SHIPPED for text, _ in exprs]


@ORACLE
@given(st.sampled_from(ORACLE_FIELDS), st.integers(0, len(SHIPPED_TEXTS) - 1), st.data())
def test_parse_matches_the_pairwise_reference_on_malformed_shipped_expressions(field, k, data):
    symbols, text = SHIPPED_TEXTS[k]
    algebra = FreeAlgebra(field, symbols)
    _agree(algebra, data.draw(mutated(st.just(text))))


# -- bounds on the no-collect path ---------------------------------------------------

def test_product_limit_between_a_monomial_and_a_wide_polynomial(xy):
    wide = xy.parse(" + ".join("".join(w) for w in product("XY", repeat=10)))
    # 1024 * (965 + 1) + 1024 * 10 = 999,424 units; one more letter is 1,000,448
    for text, shape in (("{}*W", "1 by 1024"), ("W*{}", "1024 by 1"), ("W {}", "1024 by 1")):
        assert len(_agree(xy, text.format("X" * 965), {"W": wide})) == 1024
        assert _agree(xy, text.format("X" * 966), {"W": wide})[:2] == (
            CapabilityError, f"a product of {shape} terms is over the limit of {PRODUCT_LIMIT} "
            "terms plus letters")
    monomial = xy.word("X" * 966)
    for left, right in ((monomial, wide), (wide, monomial)):
        with pytest.raises(CapabilityError) as err:
            left * right
        with pytest.raises(CapabilityError) as ref:
            _ref_mul(left, right)
        assert str(err.value) == str(ref.value)


def test_product_limit_on_a_run_of_symbols(xy):
    # a run of ten tokens is one product; the letter-by-letter products of
    # the reference make the same last check: 10^6 letters plus one term
    run = "*".join(["XY" * 50_000] * 10)
    assert _agree(xy, run)[:2] == (
        CapabilityError, f"a product of 1 by 1 terms is over the limit of {PRODUCT_LIMIT} "
        "terms plus letters")
    assert _agree(xy, run[:-1])[0][0] == ("X", "Y") * 499_999 + ("X",)
    assert _agree(xy, "2*" + run)[0] == CapabilityError
    # after a factor of two terms, every letter of the run is written twice
    half = "X" * 249_999
    assert len(_agree(xy, "(X + Y)*" + half + "*" + half)) == 2
    assert _agree(xy, "(X + Y)*" + half + "*" + half + "X")[:2] == (
        CapabilityError, f"a product of 2 by 1 terms is over the limit of {PRODUCT_LIMIT} "
        "terms plus letters")


def test_product_limit_on_nested_powers(xy):
    assert _agree(xy, "((X^64)^64)^64") == [(("X",) * 64**3, 1)]
    assert _agree(xy, "(((X^64)^64)^64)^64")[:2] == (
        CapabilityError, f"a product of 1 by 1 terms is over the limit of {PRODUCT_LIMIT} "
        "terms plus letters")


def test_exponent_and_depth_limits_match_the_reference(xy):
    for text in (f"X^{EXPONENT_LIMIT}", f"X^{EXPONENT_LIMIT + 1}", f"(X + Y)^{EXPONENT_LIMIT + 1}",
                 "X^-1", "X^Y", "X^", "(" * DEPTH_LIMIT + "X" + ")" * DEPTH_LIMIT,
                 "(" * (DEPTH_LIMIT + 1) + "X" + ")" * (DEPTH_LIMIT + 1)):
        _agree(xy, text)
    with pytest.raises(CapabilityError, match="exponent 65"):
        xy.symbol("X") ** 65
    with pytest.raises(DomainError):
        xy.symbol("X") ** -1


# -- what the single term dict saves --------------------------------------------------

def test_a_run_of_symbols_is_collected_once(xy, monkeypatch):
    calls = []
    collect = freepoly._collect
    monkeypatch.setattr(freepoly, "_collect", lambda *args: calls.append(1) or collect(*args))
    assert xy.parse("X*Y*X*Y*X") == xy.word("XYXYX")
    assert len(calls) == 1


def test_products_with_a_one_term_factor_neither_add_nor_multiply_by_one(xy, monkeypatch):
    wide = xy.parse(" + ".join("".join(w) for w in product("XY", repeat=4)))
    counts = {"add": 0, "mul": 0}
    for name in counts:
        original = getattr(Field, name)

        def counted(self, a, b, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, a, b)

        monkeypatch.setattr(Field, name, counted)
    x = xy.symbol("X")
    assert len((x * wide * x).terms) == len((x ** 2 * wide).terms) == 16
    assert xy.parse("X*Y X*(Y*X)") == xy.word("XYXYX")
    assert counts == {"add": 0, "mul": 0}
    assert len((3 * wide).terms) == 16
    assert counts == {"add": 0, "mul": 16}


# -- word formatting ------------------------------------------------------------------

def _grouped_word(w):
    """Every word through groupby: runs of a letter as powers."""
    runs = ((s, len(list(run))) for s, run in groupby(w))
    return "*".join(s if n == 1 else f"{s}^{n}" for s, n in runs)


@st.composite
def alternating_words(draw):
    """Words over X, Y, Z with no letter next to itself."""
    w = []
    for _ in range(draw(st.integers(0, 12))):
        w.append(draw(st.sampled_from([s for s in ("X", "Y", "Z") if not w or s != w[-1]])))
    return tuple(w)


@ORACLE
@given(st.one_of(alternating_words(),
                 st.lists(st.sampled_from(["X", "Y", "Z", "Ab"]), max_size=12).map(tuple)))
def test_format_word_matches_the_grouped_form(w):
    assert freepoly._format_word(w) == _grouped_word(w)


def test_format_word_examples():
    assert freepoly._format_word(("X", "Y", "X")) == "X*Y*X"
    assert freepoly._format_word(("X", "X", "Y", "Y", "Y", "X")) == "X^2*Y^3*X"
    assert freepoly._format_word(()) == ""
