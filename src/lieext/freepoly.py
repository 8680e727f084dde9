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
from itertools import chain, groupby, islice
from operator import eq

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
    """Formal sum of words; ``terms`` maps a word tuple to a nonzero scalar.
    The constructor stores the dict it is given: every builder in this
    module hands it nonzero terms."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms):
        self.algebra = algebra
        self.terms = terms

    def _lift(self, other):
        if isinstance(other, FreePoly):
            if other.algebra != self.algebra:
                raise DomainError("operands live in different free algebras")
            return other
        return self.algebra.const(other)

    def __add__(self, other):
        terms = chain(self.terms.items(), self._lift(other).terms.items())
        return FreePoly(self.algebra, _collect(self.algebra.field, terms))

    __radd__ = __add__

    def __neg__(self):
        f = self.algebra.field
        return FreePoly(self.algebra, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        return FreePoly(self.algebra, _product(self.algebra.field, self.terms,
                                               self._lift(other).terms))

    def __rmul__(self, other):
        return self._lift(other) * self

    def __pow__(self, n):
        return FreePoly(self.algebra, _power(self.algebra.field, self.terms, n))

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


def _collect(field: Field, pairs) -> dict:
    """Sum (word, coefficient) pairs into one term dict.  A word whose sum
    reaches zero is dropped at once, so if it comes back it comes last."""
    add = field.add
    out = {}
    for w, c in pairs:
        c = add(out[w], c) if w in out else c
        if c:
            out[w] = c
        else:
            out.pop(w, None)
    return out


def _product(field: Field, left: dict, right: dict) -> dict:
    """The term dict of ``left * right``.

    When one side has a single term, concatenation sends distinct words to
    distinct words and nonzero coefficients stay nonzero, so the expansion
    needs no collecting: it is one term per term of the other side, in the
    order the general expansion gives them."""
    n, m = len(left), len(right)
    # one unit per term of the expansion, plus one per letter it writes
    if m * (sum(map(len, left)) + n) + n * sum(map(len, right)) > PRODUCT_LIMIT:
        raise CapabilityError(f"a product of {n} by {m} terms is over the limit of "
                              f"{PRODUCT_LIMIT} terms plus letters")
    one, mul = field.one, field.mul
    if n == 1:
        (w1, c1), = left.items()
        if c1 is one:
            return {w1 + w2: c2 for w2, c2 in right.items()}
        return {w1 + w2: mul(c1, c2) for w2, c2 in right.items()}
    if m == 1:
        (w2, c2), = right.items()
        if c2 is one:
            return {w1 + w2: c1 for w1, c1 in left.items()}
        return {w1 + w2: mul(c1, c2) for w1, c1 in left.items()}
    return _collect(field, ((w1 + w2, mul(c1, c2))
                            for w1, c1 in left.items() for w2, c2 in right.items()))


def _power(field: Field, terms: dict, n) -> dict:
    """The term dict of ``terms`` to the ``n``-th power, one product at a time."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("powers must be nonnegative integers")
    if n > EXPONENT_LIMIT:
        raise CapabilityError(f"exponent {n} is over the limit of {EXPONENT_LIMIT}")
    acc = {(): field.one}
    for _ in range(n):
        acc = _product(field, acc, terms)
    return acc


def _format_word(w) -> str:
    """Runs of a letter as powers: ("X", "X", "Y") -> "X^2*Y".  A word with
    no letter repeated next to itself has no run to group."""
    if not any(map(eq, w, w[1:])):
        return "*".join(w)
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

# operator | word | fraction | integer | any other character, between
# whitespace.  Only a fraction and an integer can start alike, and the
# fraction is tried first.  A word must start with a letter, not with a
# numeric like "²".
_TOKEN = re.compile(r"([-+*^()])|([^\W\d_]\w*)|(\d+)/(\d+)|(\d+)|(\S)")
_FACTOR_START = frozenset(("int", "frac", "word", "("))


class _Parser:
    """Recursive descent over (kind, value) tokens; every rule returns a
    term dict, and the one FreePoly is built from the whole expression's."""

    def __init__(self, algebra: FreeAlgebra, text: str, bindings):
        self.algebra = algebra
        self.field = algebra.field
        self.text = text
        self.bindings = bindings
        self.tokens = self._tokenize()
        self.cursor = 0
        self.depth = 0

    def _tokenize(self):
        tokens = []
        for op, word, num, den, integer, _ in _TOKEN.findall(self.text):
            if op:
                tokens.append((op, op))
            elif word and word[0].isalpha():
                tokens.append(("word", word))
            elif integer or num:
                try:
                    tokens.append(("int", int(integer)) if integer
                                  else ("frac", (int(num), int(den))))
                except ValueError:  # more digits than int() converts
                    raise self._error("number has too many digits", len(tokens)) from None
            else:
                pos = self._position(len(tokens))
                raise ParseError(f"unexpected character {self.text[pos]!r}", position=pos)
        tokens.append(("end", None))
        return tokens

    def _position(self, index) -> int:
        """Where token ``index`` starts.  Only errors need positions, so they
        are found by scanning the text again."""
        m = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return len(self.text) if m is None else m.start()

    def _error(self, message, index) -> ParseError:
        return ParseError(message, position=self._position(index))

    def parse(self) -> FreePoly:
        terms = self._expr()
        if self.tokens[self.cursor][0] != "end":
            raise self._error("trailing input", self.cursor)
        return FreePoly(self.algebra, terms)

    def _expr(self) -> dict:
        """A flat sum: every summand is gathered, then added up once."""
        neg, summands = self.field.neg, []
        sign = self.tokens[self.cursor][0]
        if sign == "-":
            self.cursor += 1
        while True:
            terms = self._term()
            summands.append([(w, neg(c)) for w, c in terms.items()] if sign == "-"
                            else terms.items())
            sign = self.tokens[self.cursor][0]
            if sign != "+" and sign != "-":
                return _collect(self.field, chain.from_iterable(summands))
            self.cursor += 1

    def _term(self) -> dict:
        acc = self._factor()
        while True:
            kind = self.tokens[self.cursor][0]
            if kind == "*":
                self.cursor += 1
            elif kind not in _FACTOR_START:
                return acc
            run = self._run()
            acc = _product(self.field, acc, {run: self.field.one} if run else self._factor())

    def _run(self) -> tuple:
        """The letters of the bare alphabet tokens from the cursor on, joined
        by "*" or juxtaposed, so that a run costs one product, not one per
        token.  A binding, or a token raised to a power, ends the run."""
        tokens, index, letters = self.tokens, self.algebra.index, []
        i = self.cursor
        while True:
            kind, value = tokens[i]
            if kind != "word" or tokens[i + 1][0] == "^" or value in self.bindings:
                break
            if value in index:
                letters.append(value)
            elif all(c in index for c in value):
                letters += value
            else:
                break
            self.cursor = i = i + 1
            if tokens[i][0] == "*":
                i += 1
        return tuple(letters)

    def _factor(self) -> dict:
        base = self._atom()
        if self.tokens[self.cursor][0] != "^":
            return base
        kind, value = self.tokens[self.cursor + 1]
        self.cursor += 2
        if kind != "int":
            raise self._error("exponent must be a nonnegative integer", self.cursor - 1)
        return _power(self.field, base, value)

    def _atom(self) -> dict:
        kind, value = self.tokens[self.cursor]
        self.cursor += 1
        if kind == "word":
            if value in self.bindings:
                poly = self.bindings[value]
                if poly.algebra != self.algebra:
                    raise DomainError("operands live in different free algebras")
                return poly.terms
            if value in self.algebra.index:
                return self.algebra.symbol(value).terms
            if all(c in self.algebra.index for c in value):
                return self.algebra.word(value).terms
            raise self._error(f"unknown symbol {value!r}", self.cursor - 1)
        if kind == "(":
            if self.depth == DEPTH_LIMIT:
                raise self._error(f"parentheses nested deeper than {DEPTH_LIMIT}",
                                  self.cursor - 1)
            self.depth += 1
            inner = self._expr()
            self.depth -= 1
            if self.tokens[self.cursor][0] != ")":
                raise self._error("expected ')'", self.cursor)
            self.cursor += 1
            return inner
        field = self.field
        if kind == "int":
            c = field.of(value)
        elif kind == "frac":
            num, den = value
            den_val = field.of(den)
            if not den_val:
                raise self._error(f"denominator {den} vanishes in this field", self.cursor - 1)
            c = field.div(field.of(num), den_val)
        else:
            raise self._error(f"unexpected token {value!r}" if value
                              else "unexpected end of input", self.cursor - 1)
        return {(): c} if c else {}
