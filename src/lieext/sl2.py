"""Witness search, sl2-triple construction, the five-component grading by
the semisimple member, the quadratic-action test, and the characteristic-5
dichotomy.

Error taxonomy matters here: HypothesisError means a documented
precondition failed (caller's problem), ContradictionError means the run
reached a state that is impossible for honest input, so the structure
constants themselves must be corrupt.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import LieAlgebra, format_vector, quotient_action
from .errors import CapabilityError, ContradictionError, HypothesisError
from .extremal import EXTREMAL, apply_functional
from .linalg import (Matrix, _span, eigenspace, solve, vec_add, vec_combine, vec_is_zero,
                     vec_scale, vec_sub)

LABELS = (-2, -1, 0, 1, 2)


class _Relations:
    """Named checks, each written once where it is checked: a false outcome
    raises ``error("<what> failed: <name>")``, a true one records the name
    in ``names`` for the report."""

    def __init__(self, error, what):
        self.error, self.what = error, what
        self.names = []

    def __call__(self, name, holds):
        if not holds:
            raise self.error(f"{self.what} failed: {name}")
        self.names.append(name)


def require_good_characteristic(l: LieAlgebra):
    if l.field.p in (2, 3):
        raise CapabilityError("this construction needs characteristic different from 2 and 3")


class Sl2Triple(NamedTuple):
    x: tuple
    y: tuple
    h: tuple

    def formatted(self, field) -> dict:
        """The members as canonical coordinate strings, for reports."""
        return {"x": format_vector(field, self.x), "y": format_vector(field, self.y),
                "h": format_vector(field, self.h)}


class CompletionCertificate(NamedTuple):
    w: tuple
    x1: tuple
    w1: tuple


def triple_relations_hold(l: LieAlgebra, x, y, h) -> bool:
    f = l.field
    two = f.of(2)
    return (
        l.bracket(x, y) == tuple(h)
        and l.bracket(h, x) == vec_scale(f, two, x)
        and l.bracket(h, y) == vec_scale(f, f.neg(two), y)
    )


def make_triple(l: LieAlgebra, x, y) -> Sl2Triple:
    """Verified triple from a pair; the bracket of the pair is the third member."""
    x, y = l.check_vector(x), l.check_vector(y)
    if vec_is_zero(x) or vec_is_zero(y):
        raise HypothesisError("sl2 pair members must be nonzero")
    h = l.bracket(x, y)
    if not triple_relations_hold(l, x, y, h):
        raise HypothesisError("the defining sl2 relations do not hold for this pair")
    return Sl2Triple(x, y, h)


def find_witness(l: LieAlgebra, functional):
    """First basis vector where the functional is nonzero, scaled to -2."""
    f = l.field
    for i, c in enumerate(functional):
        if c:
            scale = f.div(f.of(-2), c)
            return vec_scale(f, scale, l.basis_vector(i))
    raise HypothesisError("sandwich element: the extremal functional vanishes identically")


def complete_sl2(l: LieAlgebra, status, w):
    """Complete an extremal x and a witness w with f_x(w) = -2 to a triple.

    ``status`` is the :class:`ExtremalStatus` that ``classify_element`` or
    ``require_extremal`` returned for x; x and its functional f_x are read
    off it, so no adjoint is built and x is not classified again.

    Follows the constructive argument: h = [x, w]; the defect
    x1 = [w, h] - 2w lies in the centralizer C of x, and y = w + w1 where
    w1 in C solves (ad_h + 2) w1 = x1.  On C, t = ad_h satisfies
    t(t - 1)(t - 2) = 0, and (t + 2)(12 - 5t + t^2) = 24 + t(t - 1)(t - 2),
    so w1 = (12 x1 - 5 [h, x1] + [h, [h, x1]]) / 24: two brackets, no solve
    (in characteristic 5, 3 x1 + 4 [h, [h, x1]]).  Given h = [x, w],
    [x, y] = h holds exactly when w1 lies in C, and [h, y] = -2y exactly
    when (ad_h + 2) w1 = x1, so the one exact check of the triple's
    relations verifies the formula.
    """
    require_good_characteristic(l)
    w = l.check_vector(w)
    f = l.field
    if status.functional is None:
        raise HypothesisError("x is not extremal")
    if apply_functional(status.functional, w, f) != f.of(-2):
        raise HypothesisError("witness does not satisfy f_x(w) = -2")
    x = status.vector
    h = l.bracket(x, w)
    x1 = vec_sub(f, l.bracket(w, h), vec_scale(f, f.of(2), w))
    hx1 = l.bracket(h, x1)
    w1 = vec_combine(f, [f.div(f.of(c), f.of(24)) for c in (12, -5, 1)],
                     (x1, hx1, l.bracket(h, hx1)))
    y = vec_add(f, w, w1)
    if not triple_relations_hold(l, x, y, h):
        raise HypothesisError("constructed pair violates the sl2 relations")
    return Sl2Triple(x, y, h), CompletionCertificate(w, x1, w1)


class HGrading(NamedTuple):
    """Eigenspace decomposition of -ad_h at the labels -2..2.

    For characteristic p >= 5 the labels are lifted from residues
    (0,1,2,3,4) -> (0,1,2,-2,-1); ``z_graded`` records whether all products
    with integer label sum outside [-2, 2] vanish.
    """

    components: dict
    z_graded: bool

    def dims(self) -> dict:
        return {i: self.components[i].dim for i in LABELS}


def h_grading(l: LieAlgebra, t: Sl2Triple) -> HGrading:
    """Eigenspace decomposition of -ad_h, verified to be a direct sum with
    the line through x at label -2 and the line through y at label 2.

    Eigenspaces at distinct eigenvalues are independent, and -2..2 are
    distinct for p = 0 and p >= 5.  So when those at the labels -1, 0 and 1
    have dimensions summing to dim - 2 and x and y are nonzero with
    [h, x] = 2x and [h, y] = -2y, the eigenspaces at -2 and 2 are exactly
    the lines through x and y, and only three are computed."""
    require_good_characteristic(l)
    f = l.field
    ad_h = l.ad(t.h)
    two = f.of(2)

    def eigenvector(v, lam):
        return len(v) == l.dim and not vec_is_zero(v) and ad_h.apply(v) == vec_scale(f, lam, v)

    inner = {i: eigenspace(ad_h, f.of(-i)) for i in (-1, 0, 1)}
    if (sum(c.dim for c in inner.values()) == l.dim - 2
            and eigenvector(t.x, two) and eigenvector(t.y, f.neg(two))):
        outer = {-2: _span(f, l.dim, [t.x]), 2: _span(f, l.dim, [t.y])}
    else:
        outer = {i: eigenspace(ad_h, f.of(-i)) for i in (-2, 2)}
    components = {i: inner[i] if i in inner else outer[i] for i in LABELS}
    # the dimensions decide the direct sum
    if sum(c.dim for c in components.values()) != l.dim:
        raise HypothesisError(
            "-ad_h is not diagonalizable with eigenvalues 0, +-1, +-2; "
            "the input violates the preconditions")
    for label, vec in ((-2, t.x), (2, t.y)):
        comp = components[label]
        if comp.dim != 1 or not comp.contains(vec):
            raise HypothesisError(f"component at label {label} is not the expected line")
    # Of the label pairs with |i + j| > 2, (2, 2) and (-2, -2) bracket a line
    # with itself and the reversed pairs are antisymmetric, so [L1, L2] and
    # [L-1, L-2] decide the integer grading.
    z_graded = all(vec_is_zero(l.bracket(u, w))
                   for i, j in ((1, 2), (-1, -2))
                   for u in components[i].basis for w in components[j].basis)
    return HGrading(components, z_graded)


def quadraticity_check(l: LieAlgebra, t: Sl2Triple) -> bool:
    """Does the nilnegative member act quadratically on L modulo the triple's span?"""
    s = _span(l.field, l.dim, [t.x, t.y, t.h])
    m = quotient_action(l, s, [t.y])[0]
    return m.mul(m).is_zero()


class DichotomyResult(NamedTuple):
    branch: str                      # "exceptional" | "regular"
    v: "tuple | None"                # exceptional: [y, [y, v]] = x with v in L_-1
    note: str = ""


GRADING_MAP_NOTE = (
    "grading maps verified as [x, L1] = L-1 and [y, L-1] = L1; the reversed "
    "index placement occasionally seen for these equalities is inconsistent "
    "with the grading and is treated as a typo")


def _exceptional_v(l: LieAlgebra, t: Sl2Triple, lm1):
    """The exceptional branch: v in ``lm1`` with [y, [y, v]] = x, or None
    when [y, [y, b]] = 0 for the basis b of ``lm1``."""
    f = l.field
    ady = l.ad(t.y).apply
    images = [ady(ady(b)) for b in lm1.basis]
    if all(map(vec_is_zero, images)):
        return None
    if f.p != 5:
        raise ContradictionError(
            "[y, [y, L_-1]] is nonzero in characteristic != 5; structure constants corrupt")
    if _span(f, l.dim, images) != _span(f, l.dim, [t.x]):
        raise ContradictionError("[y, [y, L_-1]] is not the line through x")
    sol = solve(Matrix.from_columns(f, images), t.x)
    if sol is None:
        raise ContradictionError("x escaped the column space it was just seen in")
    v = vec_combine(f, sol, lm1.basis)
    if ady(ady(v)) != tuple(t.x):
        raise ContradictionError("solver returned a non-solution")
    return v


def dichotomy(l: LieAlgebra, t: Sl2Triple, g: HGrading, y_status) -> DichotomyResult:
    """Either produce v in L_-1 with [y, [y, v]] = x (characteristic 5 only), or
    verify the regular outcome: y extremal, read off y's ``ExtremalStatus``, a
    genuine integer grading, and [x, .]: L1 -> L-1, [y, .]: L-1 -> L1 onto."""
    if y_status.vector != tuple(t.y):
        raise HypothesisError("the extremal status is not that of the triple's y")
    f = l.field
    lm1 = g.components[-1]
    l1 = g.components[1]
    v = _exceptional_v(l, t, lm1)
    if v is not None:
        return DichotomyResult("exceptional", v)
    y_lm1 = [l.bracket(t.y, b) for b in lm1.basis]
    check = _Relations(ContradictionError, "regular-branch verification")
    check("y_extremal", y_status.kind == EXTREMAL)
    check("x_maps_L1_onto_L-1",
          _span(f, l.dim, [l.bracket(t.x, b) for b in l1.basis]) == lm1)
    check("y_maps_L-1_onto_L1",
          _span(f, l.dim, y_lm1) == l1)
    check("integer_grading", g.z_graded)
    return DichotomyResult("regular", None, GRADING_MAP_NOTE)
