"""Exact coefficient fields: GF(p) for prime p, and the rationals.

Scalars are plain Python values: a residue ``int`` in ``[0, p)`` over GF(p),
a ``fractions.Fraction`` over the rationals.  Both representations are
canonical, so two scalars are equal iff they compare equal.  A
:class:`Field` instance owns the characteristic.  Hot loops add and multiply
field elements with Python's own ``+`` and ``*``, which are exact on ints
and Fractions, and canonicalize each accumulated value once, through
:meth:`Field.reduce` or :meth:`Field.reduce_scalar`; the rest of the
arithmetic goes through the :class:`Field` methods, which canonicalize
every result.

Outside numbers come in only through :meth:`Field.of` and :meth:`Field.parse`;
the arithmetic takes field elements as they are.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError, FieldMismatch, ParseError

_P_LIMIT = 2**31


def _natural(text: str):
    """``text`` as a nonnegative integer written in ASCII digits, else None.

    ``str.isdigit`` also accepts digits such as "²" that ``int`` refuses, and
    ``int`` refuses more than ``sys.get_int_max_str_digits()`` digits."""
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """GF(p) when ``characteristic`` is a prime, the rationals when it is 0."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, characteristic: int):
        if characteristic != 0:
            if characteristic >= _P_LIMIT:
                raise DomainError(f"prime characteristic must be < 2^31, got {characteristic}")
            if not is_prime(characteristic):
                raise DomainError(f"characteristic must be 0 or prime, got {characteristic}")
        self.p = characteristic
        self.zero = 0 if characteristic else Fraction(0)
        self.one = 1 if characteristic else Fraction(1)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(0)" if self.p == 0 else f"Field({self.p})"

    def require_same(self, other: "Field"):
        if self != other:
            raise FieldMismatch(f"mixed fields: {self} vs {other}")

    # -- construction -------------------------------------------------

    def of(self, value) -> "int | Fraction":
        """Canonicalize an int (or Fraction, over the rationals) into the field."""
        if type(value) is int:
            return value % self.p if self.p else Fraction(value)
        if self.p:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    return self.div(self.of(value.numerator), self.of(value.denominator))
                value = value.numerator
            return value % self.p
        return value if type(value) is Fraction else Fraction(value)

    def reduce(self, values) -> tuple:
        """The canonical elements of raw values: sums of products of field
        elements, taken with ``+`` and ``*`` and started from ``zero``, so
        that over the rationals they are Fractions already."""
        p = self.p
        return tuple([x % p for x in values]) if p else tuple(values)

    def reduce_scalar(self, value):
        """:meth:`reduce` for one raw value."""
        return value % self.p if self.p else value

    # -- arithmetic ---------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if not a:
            raise DomainError("division by zero")
        return pow(a, self.p - 2, self.p) if self.p else 1 / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- text form ----------------------------------------------------
    #
    # The canonical coefficient syntax (used in algebra files, CLI
    # coordinates and reports) is strict: a reduced residue "r" with
    # 0 <= r < p over GF(p), and "a/b" in lowest terms with b >= 1
    # over the rationals.

    def format(self, a) -> str:
        if self.p:
            return str(a)
        return f"{a.numerator}/{a.denominator}"

    def parse(self, text: str):
        text = text.strip()
        if self.p:
            v = _natural(text)
            if v is None:
                raise ParseError(f"expected residue in [0, {self.p}), got {text!r}")
            if v >= self.p:
                raise ParseError(f"non-canonical residue {text!r} for GF({self.p})")
            return v
        head, sep, tail = text.partition("/")
        neg = head.startswith("-")
        if neg:
            head = head[1:]
        num, den = _natural(head), _natural(tail)
        if not sep or num is None or den is None:
            raise ParseError(f'expected rational "a/b", got {text!r}')
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        if gcd(num, den) != 1 or (num == 0 and (den != 1 or neg)):
            raise ParseError(f"non-canonical rational {text!r}")
        return Fraction(-num if neg else num, den)

    # -- enumeration / sampling ----------------------------------------

    def elements(self):
        if not self.p:
            raise DomainError("cannot enumerate an infinite field")
        return range(self.p)

    def random(self, rng):
        if self.p:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


QQ = Field(0)
