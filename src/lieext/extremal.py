"""Extremality and sandwich predicates, and finite-field scans.

An element x is extremal when [x, [x, L]] lies in the line F x; the linear
functional f with [x, [x, m]] = f(m) x is recovered coordinate by
coordinate and cross-checked on every row, so a proportionality accident on
a single coordinate cannot produce a false positive.
"""

from __future__ import annotations

from itertools import compress
from operator import mul
from typing import NamedTuple

from .algebra import EXHAUSTIVE_LIMIT, LieAlgebra, _projective_representatives
from .errors import CapabilityError, DomainError, HypothesisError
from .linalg import _dot, vec_is_zero, vec_scale

NOT_EXTREMAL = "not_extremal"
SANDWICH = "sandwich"
EXTREMAL = "extremal_nonsandwich"


class ExtremalStatus(NamedTuple):
    vector: tuple
    kind: str
    functional: "tuple | None"  # f with [x,[x,b_j]] = f_j x; None when not extremal


def classify_element(l: LieAlgebra, x) -> ExtremalStatus:
    """Decide whether x is extremal, and if so recover its functional.
    Column j of ad(x) is [x, b_j]."""
    x = l.check_vector(x)
    if vec_is_zero(x):
        raise DomainError("the zero vector has no extremal functional")
    functional = _functional(l.field, tuple(zip(*l.ad(x).data)), x)
    return ExtremalStatus(x, _kind(functional), functional)


def _functional(field, cols, x):
    """The functional f with [x, [x, b_j]] = f_j x, from the columns
    cols[j] = [x, b_j] of ad(x) for a nonzero x, or None when x is not
    extremal.  ad(x) maps b_k to cols[k], so it maps cols[j] to
    w = sum_k cols[j][k] cols[k] = [x, [x, b_j]]; f_j is read off x's
    leading coordinate and w = f_j x is checked on every coordinate.

    Most x are not extremal and already fail on the first column, so that
    one is checked a coordinate at a time, coordinate i of w being row i of
    ad(x) dotted with the nonzero entries of cols[0]; the other columns are
    summed from their nonzero entries.  Zero entries are skipped throughout,
    which keeps a sparse ad(x), and rational arithmetic, cheap."""
    reduce = field.reduce_scalar
    lead = next(i for i, a in enumerate(x) if a)
    inv = field.inv(x[lead])
    first = cols[0]
    entries = list(compress(first, first))
    s = field.zero
    for i, (row, a) in enumerate(zip(zip(*cols), x)):
        w = sum(map(mul, compress(row, first), entries))
        if i == lead:
            s = reduce(w * inv)
        elif reduce(w - s * a):
            return None
    functional = [s]
    zero = [field.zero] * len(x)
    for col in cols[1:]:
        w = zero
        for c, image in zip(col, cols):
            if c:
                w = [a + c * b if b else a for a, b in zip(w, image)]
        w = field.reduce(w)
        s = reduce(w[lead] * inv)
        if w != vec_scale(field, s, x):
            return None
        functional.append(s)
    return tuple(functional)


def _kind(functional) -> str:
    """NOT_EXTREMAL when there is no functional (None), SANDWICH when it
    vanishes, else EXTREMAL."""
    if functional is None:
        return NOT_EXTREMAL
    return EXTREMAL if any(functional) else SANDWICH


def require_extremal(l: LieAlgebra, x) -> ExtremalStatus:
    """:func:`classify_element`, refusing x unless it is extremal and not a sandwich."""
    status = classify_element(l, x)
    if status.kind != EXTREMAL:
        raise HypothesisError(f"x must be extremal and not a sandwich (got {status.kind})")
    return status


def apply_functional(f_vec, v, field):
    return field.reduce_scalar(_dot(field, f_vec, v))


def scan_basis(l: LieAlgebra) -> list:
    return [classify_element(l, l.basis_vector(i)) for i in range(l.dim)]


class ScanResult(NamedTuple):
    extremal: tuple
    sandwich: tuple
    counts: dict
    representatives_only: bool


def exhaustive_scan(l: LieAlgebra, representatives_only: bool = False) -> ScanResult:
    """Classify every nonzero vector of a small finite-field algebra.

    Extremality is a property of lines: c x has the kind of x and the
    functional c f_x.  So one vector per line, its representative with first
    nonzero coordinate 1, is classified and counted p - 1 times; the result
    is the same as classifying every vector.  Vectors come out in
    lexicographic coordinate order.  With ``representatives_only`` each line
    appears once, through its representative.

    ad(x) is linear in x, so the scan keeps the columns of ad(x) mod p and,
    when coordinate i of x moves from a to b, adds (b - a) ad(b_i) through
    the nonzero brackets [b_i, b_j]; consecutive representatives differ
    mostly in one coordinate.  No matrix is built per line.
    """
    f = l.field
    p, n = f.p, l.dim
    if p == 0:
        raise CapabilityError("exhaustive scan needs a finite field")
    if p**n > EXHAUSTIVE_LIMIT:
        raise CapabilityError(f"exhaustive scan limited to p^n <= {EXHAUSTIVE_LIMIT}")
    counts = {NOT_EXTREMAL: 0, SANDWICH: 0, EXTREMAL: 0}
    found = {SANDWICH: [], EXTREMAL: []}
    cols = [[0] * n for _ in range(n)]
    # terms[i]: (column j of ad(x), k, c) for each term c b_k of [b_i, b_j]
    terms = [[(cols[j], k, c) for j, bracket in l._rows[i].items() for k, c in bracket]
             for i in range(n)]
    x = (0,) * n                # cols holds the columns of ad(x)
    for v in _projective_representatives(f, n):
        for i, (a, b) in enumerate(zip(x, v)):
            if a != b:
                d = b - a
                for col, k, c in terms[i]:
                    col[k] = (col[k] + d * c) % p
        x = v
        kind = _kind(_functional(f, cols, v))
        counts[kind] += p - 1
        if kind in found:
            found[kind].extend([v] if representatives_only
                               else (vec_scale(f, c, v) for c in range(1, p)))
    return ScanResult(tuple(sorted(found[EXTREMAL])), tuple(sorted(found[SANDWICH])),
                      counts, representatives_only)
