"""Free associative polynomials with exact coefficients, a small expression
parser, and a terminating rewrite engine.

Rewriting strategy (part of the contract, since the rule sets are not
confluent by construction): each word is normalized independently, so like
words may be merged before they are rewritten; within a word, match
positions are scanned left to right and at each position the rules are tried
in list order; the first match is replaced and the resulting words are
normalized again.  Rules must be length-decreasing (or
length-preserving and lexicographically decreasing), which makes every
reduction terminate.
"""

from __future__ import annotations

import heapq
import re
from itertools import chain, groupby

from .errors import CapabilityError, DomainError, ParseError
from .fields import Field

SPAN_WORD_LIMIT = 10**5    # most irreducible words span_closure will list
EXPONENT_LIMIT = 64        # largest exponent of a power
PRODUCT_LIMIT = 10**6      # most terms plus letters one product may write
DEPTH_LIMIT = 100          # deepest nesting of parentheses in an expression
REWRITE_STEP_LIMIT = 10**5  # most rule applications one reduce_poly call may make
REWRITE_LETTER_LIMIT = 10**7  # most terms plus letters one reduce_poly call may write

class FreeAlgebra:
    """Context object: an ordered alphabet over a coefficient field."""

    def __init__(self, field: Field, alphabet):
        self.field = field
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise DomainError("alphabet symbols must be distinct")
        if not all(s and s.isalpha() for s in self.alphabet):
            raise DomainError("alphabet symbols must be nonempty alphabetic words")
        self.index = {s: i for i, s in enumerate(self.alphabet)}
        self._reversed_index = {s: -i for i, s in enumerate(self.alphabet)}

    def __eq__(self, other):
        return (isinstance(other, FreeAlgebra) and self.field == other.field
                and self.alphabet == other.alphabet)

    def __hash__(self):
        return hash((self.field, self.alphabet))

    def zero(self) -> "FreePoly":
        return FreePoly(self, {})

    def one(self) -> "FreePoly":
        return FreePoly(self, {(): self.field.one})

    def const(self, c) -> "FreePoly":
        c = self.field.of(c)
        return FreePoly(self, {(): c} if c else {})

    def symbol(self, s: str) -> "FreePoly":
        if s not in self.index:
            raise DomainError(f"unknown symbol {s!r}")
        return FreePoly(self, {(s,): self.field.one})

    def word(self, symbols) -> "FreePoly":
        w = tuple(symbols)
        for s in w:
            if s not in self.index:
                raise DomainError(f"unknown symbol {s!r}")
        return FreePoly(self, {w: self.field.one})

    def word_key(self, w):
        return (len(w), tuple(map(self.index.__getitem__, w)))

    def descending_word_key(self, w):
        """Orders words the opposite way to :meth:`word_key`."""
        return (-len(w), tuple(map(self._reversed_index.__getitem__, w)))

    def parse(self, text: str, bindings=None) -> "FreePoly":
        return _Parser(self, text, bindings or {}).parse()


class FreePoly:
    """Formal sum of words; ``terms`` maps a word tuple to a nonzero scalar."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if c}

    def _lift(self, other):
        if isinstance(other, FreePoly):
            if other.algebra != self.algebra:
                raise DomainError("operands live in different free algebras")
            return other
        return self.algebra.const(other)

    def __add__(self, other):
        return _collect(self.algebra, chain(self.terms.items(), self._lift(other).terms.items()))

    __radd__ = __add__

    def __neg__(self):
        f = self.algebra.field
        return FreePoly(self.algebra, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        n, m = len(self.terms), len(other.terms)
        # one unit per term of the expansion, plus one per letter it writes
        if m * sum(len(w) + 1 for w in self.terms) + n * sum(map(len, other.terms)) > PRODUCT_LIMIT:
            raise CapabilityError(f"a product of {n} by {m} terms is over the limit of "
                                  f"{PRODUCT_LIMIT} terms plus letters")
        mul = self.algebra.field.mul
        return _collect(self.algebra, ((w1 + w2, mul(c1, c2))
                                       for w1, c1 in self.terms.items()
                                       for w2, c2 in other.terms.items()))

    def __rmul__(self, other):
        return self._lift(other) * self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise DomainError("powers must be nonnegative integers")
        if n > EXPONENT_LIMIT:
            raise CapabilityError(f"exponent {n} is over the limit of {EXPONENT_LIMIT}")
        acc = self.algebra.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if isinstance(other, FreePoly):
            return self.algebra == other.algebra and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.algebra, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda it: self.algebra.word_key(it[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        f = self.algebra.field
        parts = []
        for w, c in self.sorted_terms():
            s = f.format(c)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            body = _format_word(w)
            if body:
                chunk = body if s in ("1", "1/1") else f"{s}*{body}"
            else:
                chunk = s
            if not parts:
                parts.append(("-" if neg else "") + chunk)
            else:
                parts.append(("- " if neg else "+ ") + chunk)
        return " ".join(parts)

    __repr__ = __str__


def _collect(algebra: FreeAlgebra, pairs) -> FreePoly:
    """Sum (word, coefficient) pairs into one polynomial.  A word whose sum
    reaches zero is dropped at once, so if it comes back it comes last."""
    add = algebra.field.add
    out = {}
    for w, c in pairs:
        c = add(out[w], c) if w in out else c
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    return FreePoly(algebra, out)


def _format_word(w) -> str:
    """Runs of a letter as powers: ("X", "X", "Y") -> "X^2*Y"."""
    runs = ((s, len(list(run))) for s, run in groupby(w))
    return "*".join(s if n == 1 else f"{s}^{n}" for s, n in runs)


class RewriteRule:
    """``lhs -> rhs`` with every rhs word strictly shorter than the lhs, or
    of equal length and lexicographically smaller; this makes any rewriting
    sequence terminate."""

    __slots__ = ("algebra", "lhs", "rhs")

    def __init__(self, algebra: FreeAlgebra, lhs, rhs: FreePoly):
        lhs = tuple(lhs)
        if not lhs:
            raise DomainError("rewrite rule needs a nonempty left-hand side")
        for s in lhs:
            if s not in algebra.index:
                raise DomainError(f"unknown symbol {s!r} in rule")
        if rhs.algebra != algebra:
            raise DomainError("rule sides live in different free algebras")
        key = algebra.word_key(lhs)
        for w in rhs.terms:
            if algebra.word_key(w) >= key:
                raise DomainError(
                    f"non-decreasing rule: {_format_word(w)} does not precede {_format_word(lhs)}")
        self.algebra = algebra
        self.lhs = lhs
        self.rhs = rhs

    def __repr__(self):
        return f"RewriteRule({_format_word(self.lhs)} -> {self.rhs})"


def _first_match(word, rules):
    for pos in range(len(word)):
        for rule in rules:
            end = pos + len(rule.lhs)
            if end <= len(word) and word[pos:end] == rule.lhs:
                return pos, rule
    return None


def reduce_poly(p: FreePoly, rules) -> FreePoly:
    """Normal form of every term under the fixed strategy, then recombined.

    Reduction is linear and each word has one normal form, so like words are
    merged before they are rewritten.  A rule lowers ``word_key`` in any
    context, so taking the largest pending word first rewrites each word at
    most once.  More than ``REWRITE_STEP_LIMIT`` rule applications, or more
    than ``REWRITE_LETTER_LIMIT`` terms plus letters written, raise
    :class:`CapabilityError`."""
    for r in rules:
        if r.algebra != p.algebra:
            raise DomainError("rules live in a different free algebra")
    field, key = p.algebra.field, p.algebra.descending_word_key
    pending, normal = dict(p.terms), {}
    heap = [(key(w), w) for w in pending]
    heapq.heapify(heap)
    steps = written = 0
    while heap:
        word = heapq.heappop(heap)[1]
        coeff = pending.pop(word)
        if not coeff:
            continue
        hit = _first_match(word, rules)
        if hit is None:
            normal[word] = coeff
            continue
        pos, rule = hit
        head, tail = word[:pos], word[pos + len(rule.lhs):]
        steps += 1
        written += sum(len(head) + len(w2) + len(tail) + 1 for w2 in rule.rhs.terms)
        if steps > REWRITE_STEP_LIMIT:
            raise CapabilityError(f"reduction needs more than {REWRITE_STEP_LIMIT} rewrite steps")
        if written > REWRITE_LETTER_LIMIT:
            raise CapabilityError(f"reduction writes more than {REWRITE_LETTER_LIMIT} "
                                  "terms plus letters")
        for w2, c2 in rule.rhs.terms.items():
            w, c = head + w2 + tail, field.mul(coeff, c2)
            if w in pending:
                pending[w] = field.add(pending[w], c)
            else:
                pending[w] = c
                heapq.heappush(heap, (key(w), w))
    return FreePoly(p.algebra, normal)


def span_closure(algebra: FreeAlgebra, rules, max_degree: int):
    """All words up to ``max_degree`` in normal form (no rule applies), by
    degree, then in alphabet order.  Only irreducible words are extended, so
    a new word is reducible exactly when a left-hand side ends it.  More than
    ``SPAN_WORD_LIMIT`` words raise :class:`CapabilityError`."""
    if max_degree > 12:
        raise CapabilityError("word enumeration is limited to degree 12")
    out = [()]
    level = [()]
    for _ in range(max_degree):
        level = [v for v in (w + (s,) for w in level for s in algebra.alphabet)
                 if not any(v[-len(r.lhs):] == r.lhs for r in rules)]
        out.extend(level)
        if len(out) > SPAN_WORD_LIMIT:
            raise CapabilityError(
                f"more than {SPAN_WORD_LIMIT} irreducible words up to degree {max_degree}")
    return out


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------

# fraction | integer | word | operator | any other character, between
# whitespace.  A word must start with a letter, not with a numeric like "²".
_TOKEN = re.compile(r"(\d+)/(\d+)|(\d+)|([^\W\d_]\w*)|([-+*^()])|(\S)")


class _Parser:
    def __init__(self, algebra: FreeAlgebra, text: str, bindings):
        self.algebra = algebra
        self.text = text
        self.bindings = bindings
        self.tokens = self._tokenize()
        self.cursor = 0
        self.depth = 0

    def _tokenize(self):
        tokens = []
        for m in _TOKEN.finditer(self.text):
            num, den, integer, word, op, _ = m.groups()
            i = m.start()
            if word and word[0].isalpha():
                tokens.append(("word", word, i))
            elif op:
                tokens.append((op, op, i))
            elif num or integer:
                try:
                    value = (int(num), int(den)) if num else int(integer)
                except ValueError:  # more digits than int() converts
                    raise ParseError("number has too many digits", position=i) from None
                tokens.append(("frac" if num else "int", value, i))
            else:
                raise ParseError(f"unexpected character {self.text[i]!r}", position=i)
        tokens.append(("end", None, len(self.text)))
        return tokens

    def _peek(self):
        return self.tokens[self.cursor]

    def _next(self):
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok

    def parse(self) -> FreePoly:
        poly = self._expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ParseError("trailing input", position=pos)
        return poly

    def _expr(self) -> FreePoly:
        """A flat sum: every summand is gathered, then added up once."""
        summands = []
        sign = self._next()[0] if self._peek()[0] == "-" else "+"
        while True:
            term = self._term()
            summands.append(term.terms.items() if sign == "+" else (-term).terms.items())
            if self._peek()[0] not in ("+", "-"):
                return _collect(self.algebra, chain.from_iterable(summands))
            sign = self._next()[0]

    def _term(self) -> FreePoly:
        acc = self._factor()
        while True:
            kind = self._peek()[0]
            if kind == "*":
                self._next()
                acc = acc * self._factor()
            elif kind in ("int", "frac", "word", "("):
                acc = acc * self._factor()
            else:
                return acc

    def _factor(self) -> FreePoly:
        base = self._atom()
        if self._peek()[0] == "^":
            self._next()
            kind, value, pos = self._next()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", position=pos)
            base = base**value
        return base

    def _atom(self) -> FreePoly:
        kind, value, pos = self._next()
        if kind == "int":
            return self.algebra.const(value)
        if kind == "frac":
            num, den = value
            f = self.algebra.field
            den_val = f.of(den)
            if not den_val:
                raise ParseError(f"denominator {den} vanishes in this field", position=pos)
            return self.algebra.const(f.div(f.of(num), den_val))
        if kind == "(":
            if self.depth == DEPTH_LIMIT:
                raise ParseError(f"parentheses nested deeper than {DEPTH_LIMIT}", position=pos)
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            k, _, p2 = self._next()
            if k != ")":
                raise ParseError("expected ')'", position=p2)
            return inner
        if kind == "word":
            if value in self.bindings:
                return self.bindings[value]
            if value in self.algebra.index:
                return self.algebra.symbol(value)
            if all(c in self.algebra.index for c in value):
                return self.algebra.word(tuple(value))
            raise ParseError(f"unknown symbol {value!r}", position=pos)
        raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input",
                         position=pos)
