"""Extremality and sandwich predicates, and finite-field scans.

An element x is extremal when [x, [x, L]] lies in the line F x; the linear
functional f with [x, [x, m]] = f(m) x is recovered coordinate by
coordinate and cross-checked on every row, so a proportionality accident on
a single coordinate cannot produce a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import EXHAUSTIVE_LIMIT, LieAlgebra, _projective_representatives
from .errors import CapabilityError, DomainError, HypothesisError
from .linalg import _dot, vec_is_zero, vec_ratio, vec_scale

NOT_EXTREMAL = "not_extremal"
SANDWICH = "sandwich"
EXTREMAL = "extremal_nonsandwich"


@dataclass(frozen=True)
class ExtremalStatus:
    vector: tuple
    kind: str
    functional: "tuple | None"  # f with [x,[x,b_j]] = f_j x; None when not extremal

    @property
    def is_extremal(self) -> bool:
        return self.kind != NOT_EXTREMAL


def classify_element(l: LieAlgebra, x) -> ExtremalStatus:
    """Decide whether x is extremal, and if so recover its functional.
    Column j of ad(x) is [x, b_j], so ad(x) maps it to [x, [x, b_j]]."""
    x = l.check_vector(x)
    if vec_is_zero(x):
        raise DomainError("the zero vector has no extremal functional")
    a = l.ad(x)
    functional = []
    for column in zip(*a.data):
        c = vec_ratio(l.field, a.apply(column), x)
        if c is None:
            return ExtremalStatus(x, NOT_EXTREMAL, None)
        functional.append(c)
    kind = SANDWICH if all(not c for c in functional) else EXTREMAL
    return ExtremalStatus(x, kind, tuple(functional))


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


@dataclass(frozen=True)
class ScanResult:
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
    """
    f = l.field
    p = f.p
    if p == 0:
        raise CapabilityError("exhaustive scan needs a finite field")
    if p**l.dim > EXHAUSTIVE_LIMIT:
        raise CapabilityError(f"exhaustive scan limited to p^n <= {EXHAUSTIVE_LIMIT}")
    counts = {NOT_EXTREMAL: 0, SANDWICH: 0, EXTREMAL: 0}
    found = {SANDWICH: [], EXTREMAL: []}
    for v in _projective_representatives(f, l.dim):
        kind = classify_element(l, v).kind
        counts[kind] += p - 1
        if kind in found:
            found[kind].extend([v] if representatives_only
                               else (vec_scale(f, c, v) for c in range(1, p)))
    return ScanResult(tuple(sorted(found[EXTREMAL])), tuple(sorted(found[SANDWICH])),
                      counts, representatives_only)
