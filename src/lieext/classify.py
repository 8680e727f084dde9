"""The classifier pipeline: truncated exponentials of nilpotent adjoints,
per-generator extremal certificates, recognition of the five-dimensional
Witt algebra with an explicit isomorphism, and the end-to-end decision
between the two possible verdicts.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import LieAlgebra, format_vector, is_simple, meataxe_simple, subalgebra_closure
from .errors import CapabilityError, ContradictionError, HypothesisError
from .extremal import EXTREMAL, _functional, _kind, classify_element, require_extremal
from .fields import Field
from .linalg import (_span, eigenspace, vec_add, vec_combine, vec_is_zero, vec_ratio, vec_scale,
                     vec_sub, zero_vec)
from .sl2 import (
    _Relations,
    _exceptional_v,
    HGrading,
    Sl2Triple,
    dichotomy,
    find_witness,
    h_grading,
    quadraticity_check,
    require_good_characteristic,
    complete_sl2,
)

VERDICT_WITT = "WittExceptional"
VERDICT_GENERATED = "ExtremalGenerated"


def exp_ad(l: LieAlgebra, chain):
    """exp(ad_z) applied to x, given the chain (x, a1, a2, a3, a4) with
    a_k = ad_z^k(x) and ad_z^5(x) = 0: the sum truncated at degree 4 with
    exact coefficients 1, 1, 1/2, 1/6, 1/24."""
    require_good_characteristic(l)
    f = l.field
    return vec_combine(f, [f.one, f.one] + [f.inv(f.of(k)) for k in (2, 6, 24)], chain)


class ExtremalGenCertificate(NamedTuple):
    z: tuple
    alpha: object
    h1: tuple
    u: tuple
    relations: tuple            # names of the checks, all verified
    b_vectors: tuple            # the eight vectors spanning <x, y, z>
    span_dim: int               # dim of the subalgebra generated by x, y, z
    membership_coords: tuple    # coordinates of z over the echelon basis of <x, y, u>


def extremal_from_L1(l: LieAlgebra, t: Sl2Triple, g: HGrading, z) -> ExtremalGenCertificate:
    """Certify one generator: u = exp(ad_z) x is extremal and, together with
    x and y, regenerates z.  Every relation is checked exactly; a failure is
    a contradiction with proven facts, so it flags corrupt input."""
    z = l.check_vector(z)
    if not g.components[1].contains(z):
        raise HypothesisError("z must lie in the label-1 component of the grading")
    f = l.field
    x, y, h = t.x, t.y, t.h
    check = _Relations(ContradictionError, "certificate relation")
    two = f.of(2)
    minus_one = f.neg(f.one)
    # every bracket below is [a, b] = ad(a) b with a among x, y, z and u,
    # or -ad(b) a by antisymmetry, which holds on any stored table
    adx, ady, adz = l.ad(x), l.ad(y), l.ad(z)
    if adx.apply(y) != h:
        raise HypothesisError("the triple must satisfy [x, y] = h")
    a1 = adz.apply(x)
    a2 = adz.apply(a1)
    a3 = adz.apply(a2)
    a4 = adz.apply(a3)
    # [x,z], h1 = [[x,z],z], [h1,z], [[h1,z],x] off a_k = ad_z^k(x)
    xz, h1, h1z = vec_scale(f, minus_one, a1), a2, vec_scale(f, minus_one, a3)
    b_minus = adx.apply(a3)
    ya1, ya2, ya3 = (ady.apply(a) for a in (a1, a2, a3))
    check("rel1", adx.apply(h) == vec_scale(f, f.neg(two), x))
    check("rel2", ady.apply(h) == vec_scale(f, two, y))
    check("rel3", adz.apply(h) == z)
    check("rel4", vec_is_zero(ady.apply(z)))
    check("rel5", vec_is_zero(adx.apply(a1)))
    check("rel6", vec_scale(f, minus_one, ya1) == z)
    check("rel7", vec_is_zero(ya2))
    check("rel8", vec_is_zero(adx.apply(a2)))
    check("rel9", vec_is_zero(ya3))
    check("rel10", vec_is_zero(adx.apply(b_minus)))
    check("rel11", ady.apply(b_minus) == a3)
    alpha = vec_ratio(f, a4, y)
    check("rel12", alpha is not None)

    # Jacobi applied to the quartic relation pins this value: with
    # [h1, x] = 0 one gets 2 ad_z([[h1,z],x]) = [ad_z([h1,z]), x] = alpha*h,
    # since [h1, z] = -ad_z^3(x) and ad_z^4(x) = alpha*y.
    check("adz_of_[[h1,z],x]",
          adz.apply(b_minus) == vec_scale(f, f.div(alpha, two), h))

    # ad_z^5(x) = alpha*[z,y] = -alpha*[y,z] = 0: rel12, rel4, bilinearity and antisymmetry
    u = exp_ad(l, (x, a1, a2, a3, a4))
    adu = l.ad(u)
    yu = ady.apply(u)
    check("[y,u]=-h-z", yu == vec_sub(f, l.zero(), vec_add(f, h, z)))
    check("[[y,u],y]=2y", ady.apply(yu) == vec_scale(f, f.neg(two), y))
    check("[[y,u],u]=-2u", adu.apply(yu) == vec_scale(f, two, u))
    check("u_extremal", _kind(_functional(f, tuple(zip(*adu.data)), u)) == EXTREMAL)

    # The span of the eight is <x, y, z>, the closure of x, y, z under ad x,
    # ad y and ad z.  With b- = [[h1,z],x], the checks above give each
    # [g, e] as a multiple of one of the eight, where "a_k" marks the chain's
    # own definitions ([x,z] = -a1, h1 = a2, [h1,z] = -a3, b- = [x, a3]) and
    # "anti" antisymmetry:
    #
    #   e       [x, e]              [y, e]                 [z, e]
    #   x       0       anti        -h       [x,y]=h, anti  -[x,z]     a1
    #   [x,z]   0       rel5        z        rel6           -h1        a2
    #   b-      0       rel10       -[h1,z]  rel11          (alpha/2)h adz_of_[[h1,z],x]
    #   h       -2x     rel1        2y       rel2           z          rel3
    #   h1      0       rel8        0        rel7           -[h1,z]    a3
    #   z       [x,z]   a1, anti    0        rel4           0          anti
    #   [h1,z]  -b-     a3          0        rel9           -alpha y   rel12
    #   y       h       [x,y]=h     0        anti           0          rel4, anti
    #
    # So the span holds x, y, z and every ad(g) maps it into itself; and the
    # closure reaches all of it: h = [x,y], [x,z], h1 = -[z,[x,z]],
    # [h1,z] = -[z,h1] and b- = -[x,[h1,z]].  The relation is recorded as
    # checked, since the checks it follows from have passed.
    check.names.append("span_is_eight_set")
    eight = [x, xz, b_minus, h, h1, z, h1z, y]
    span_eight = _span(f, l.dim, eight)

    z_rec = vec_combine(f, (minus_one, f.neg(f.inv(two)), f.neg(f.inv(f.of(6)))),
                        (ya1, ya2, ya3))
    check("z_reconstruction", z_rec == z)
    # u = x - [x,z] + h1/2 - [h1,z]/6 + (alpha/24) y lies in the span, and by
    # the table
    #   [x,u] = b-/6 + (alpha/24) h,
    #   [y,u] = -h - z                                  (checked above),
    #   [u,z] = [x,z] - h1 + [h1,z]/2 - (alpha/6) y.
    # So once ad(u) maps the span into itself, <x, y, u> lies in it, and it
    # holds h = [x,y], then z, [x,z], b-, [h1,z] = -[y,b-] and h1 in turn:
    # <x, y, u> is the span of the eight, and z's coordinates are read off it.
    check("z_in_<x,y,u>", all(span_eight.contains(adu.apply(e)) for e in eight))
    return ExtremalGenCertificate(z, alpha, h1, u, tuple(check.names), tuple(eight),
                                  span_eight.dim, span_eight.coords(z))


# ---------------------------------------------------------------------------
# Witt recognition
# ---------------------------------------------------------------------------

SPANNING_LABELS = ("x", "y", "h", "v", "[v,y]", "[v,[v,y]]")

# The multiplication table of the spanning set s = SPANNING_LABELS, one row
# per pair a < b: (name, a, b, {k: c}) states [s_a, s_b] = sum c * s_k.
WITT_RULES = (
    ("[x,y]=h", 0, 1, {2: 1}),
    ("[x,h]=-2x", 0, 2, {0: -2}),
    ("[x,v]=0", 0, 3, {}),
    ("[x,[v,y]]=-v", 0, 4, {3: -1}),
    ("[x,[v,[v,y]]]=0", 0, 5, {}),
    ("[y,h]=2y", 1, 2, {1: 2}),
    ("[y,v]=-[v,y]", 1, 3, {4: -1}),
    ("[y,[v,y]]=-x", 1, 4, {0: -1}),
    ("[y,[v,[v,y]]]=0", 1, 5, {}),
    ("[h,v]=v", 2, 3, {3: 1}),
    ("[h,[v,y]]=-[v,y]", 2, 4, {4: -1}),
    ("[h,[v,[v,y]]]=0", 2, 5, {}),
    ("[v,[v,y]]=[v,[v,y]]", 3, 4, {5: 1}),
    ("[v,[v,[v,y]]]=0", 3, 5, {}),
    ("[[v,y],[v,[v,y]]]=0", 4, 5, {}),
)

# Images of s in the builtin wittext5, whose basis is z^k Dz (k = 0..4) and
# z^6 Dz, in the row notation: -z^2 Dz, Dz, 2z Dz, 2z^4 Dz, 2z^3 Dz, z^6 Dz.
# witt5 has only the first five coordinates, so there [v,[v,y]] = 0 maps to 0.
# tests/test_classify.py checks every row of WITT_RULES on these images in
# both models.
WITT_IMAGES = ({2: -1}, {0: 1}, {1: 2}, {4: 2}, {3: 2}, {5: 1})


def _rule_value(f: Field, rhs: dict, vecs):
    """The right-hand side sum c * vecs[k] of one row of WITT_RULES."""
    if not rhs:
        return zero_vec(f, len(vecs[0]))
    return vec_combine(f, [f.of(c) for c in rhs.values()], [vecs[k] for k in rhs])


class WittIsoReport(NamedTuple):
    target: str                 # "W" | "W_tilde"
    spanning: tuple             # the six vectors in SPANNING_LABELS order
    rules: tuple                # names of the verified multiplication rules
    phi: tuple                  # (label, image coordinates in the builtin)
    span_equals_algebra: bool


def witt_recognize(l: LieAlgebra, t: Sl2Triple, v) -> WittIsoReport:
    """Check the rows of WITT_RULES and [y,[y,v]] = x on the spanning set
    built from v, and decide between the Witt algebra and its central
    extension.  The active spanning vectors are independent, so the rows are
    the coordinates of every bracket; the same rows hold on WITT_IMAGES in
    the builtin model, a fact about these constants alone that the test
    suite checks, so the basis map onto the model preserves the bracket."""
    if l.field.p != 5:
        raise HypothesisError("Witt recognition only applies in characteristic 5")
    v = l.check_vector(v)
    f = l.field
    x, y, h = t.x, t.y, t.h
    # a bracket with x, y or h on the left is ad(x), ad(y) or ad(h) applied;
    # [v,y] = -ad(y)v by antisymmetry, which holds on any stored table
    acts = [l.ad(u).apply for u in (x, y, h)]
    yv = acts[1](v)
    yyv = acts[1](yv)
    if yyv != tuple(x):
        raise HypothesisError("v does not satisfy [y, [y, v]] = x")
    vy = vec_scale(f, f.neg(f.one), yv)
    vvy = l.bracket(v, vy)
    spanning = (x, y, h, v, vy, vvy)
    check = _Relations(HypothesisError, "multiplication rule")
    for name, a, b, rhs in WITT_RULES:
        product = acts[a](spanning[b]) if a < 3 else l.bracket(spanning[a], spanning[b])
        check(name, product == _rule_value(f, rhs, spanning))
    check("[y,[y,v]]=x", yyv == tuple(x))
    extended = not vec_is_zero(vvy)
    target_name = "W_tilde" if extended else "W"
    active = spanning if extended else spanning[:5]
    span = _span(f, l.dim, active)
    if span.dim != len(active):
        raise HypothesisError("spanning set is linearly degenerate")

    span_all = span.dim == l.dim
    model_dim = len(active)
    phi = tuple((label, format_vector(f, [f.of(img.get(k, 0)) for k in range(model_dim)]))
                for label, img in zip(SPANNING_LABELS, WITT_IMAGES[:model_dim]))
    return WittIsoReport(target_name, spanning, tuple(check.names), phi, span_all)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

class ClassificationReport(NamedTuple):
    verdict: str
    field_characteristic: int
    dim: int
    simplicity_mode: str        # "certified" | "assumed"
    simplicity_detail: str
    x: tuple
    witness: tuple
    triple: Sl2Triple
    grading: HGrading
    quadratic_on_quotient: bool
    note: str
    iso: "WittIsoReport | None" = None
    certificates: tuple = ()
    generators: tuple = ()
    closure_dim: int = 0

    def to_dict(self) -> dict:
        field = Field(self.field_characteristic)
        l_fmt = lambda vec: format_vector(field, vec)
        doc = {
            "verdict": self.verdict,
            "hypotheses": {
                "characteristic": self.field_characteristic,
                "dim": self.dim,
                "simplicity": {"mode": self.simplicity_mode, "detail": self.simplicity_detail},
                "x": l_fmt(self.x),
                "x_kind": EXTREMAL,
                "witness": l_fmt(self.witness),
            },
            "triple": self.triple.formatted(field),
            "grading_dims": {str(i): d for i, d in self.grading.dims().items()},
            "integer_graded": self.grading.z_graded,
            "quadratic_on_quotient": self.quadratic_on_quotient,
            "note": self.note,
        }
        if self.iso is not None:
            doc["isomorphism"] = {
                "target": self.iso.target,
                "spanning_set": {
                    label: l_fmt(vec) for label, vec in zip(SPANNING_LABELS, self.iso.spanning)
                },
                "rules_checked": list(self.iso.rules),
                "phi": [[label, img] for label, img in self.iso.phi],
                "span_equals_algebra": self.iso.span_equals_algebra,
            }
        else:
            doc["certificates"] = [
                {
                    "z": l_fmt(c.z),
                    "alpha": field.format(c.alpha),
                    "h1": l_fmt(c.h1),
                    "u": l_fmt(c.u),
                    "relations_checked": list(c.relations),
                    "span_vectors": [l_fmt(v) for v in c.b_vectors],
                    "span_dim": c.span_dim,
                    "z_coords_in_xyu_closure": [field.format(co) for co in c.membership_coords],
                }
                for c in self.certificates
            ]
            doc["generators"] = [l_fmt(g) for g in self.generators]
            doc["closure_dim"] = self.closure_dim
        return doc


def _read_witt(l: LieAlgebra, x, status) -> "ClassificationReport | None":
    """The certified report of a 5-dimensional algebra over F5 read as
    W(1;1) right after the sl2 triple, or None when the reading fails or
    finds anything but a basis of W, and the full pipeline must run.

    Only the label -1 component is computed, as ``h_grading`` computes it,
    and v is the exceptional branch's ``dichotomy`` takes.  Once
    ``witt_recognize`` has checked its rows, they are L's whole table in the
    basis (x, y, h, v, [v,y]), so bilinearity and antisymmetry alone give
    what the pipeline would compute: -ad h = diag(-2, 2, 0, -1, 1) there,
    distinct mod 5, so the grading's components are the lines through x,
    [v,y], h and y beside L_-1; [[v,y], y] = x is nonzero, so the grading
    is not an integer one; and (ad y)^2 maps the basis into span(x, y, h),
    so y acts quadratically modulo the triple."""
    f = l.field
    try:
        w = find_witness(l, status.functional)
        triple, _ = complete_sl2(l, status, w)
        lm1 = eigenspace(l.ad(triple.h), f.of(1))
        v = _exceptional_v(l, triple, lm1)
        iso = None if v is None else witt_recognize(l, triple, v)
    except Exception:
        return None
    if iso is None or iso.target != "W" or not iso.span_equals_algebra:
        return None
    line = lambda vec: _span(f, l.dim, [vec])
    _, y, h, _, vy, _ = iso.spanning
    components = {-2: line(x), -1: lm1, 0: line(h), 1: line(vy), 2: line(y)}
    return ClassificationReport(
        verdict=VERDICT_WITT, field_characteristic=f.p, dim=l.dim,
        simplicity_mode="certified", x=x, witness=w,
        simplicity_detail="the recognized basis satisfies the multiplication table of the "
                          "simple Witt algebra W(1;1)",
        triple=triple, grading=HGrading(components, False), quadratic_on_quotient=True,
        note="", iso=iso)


def classify_theorem_main(l: LieAlgebra, x, assume_simple: bool = False) -> ClassificationReport:
    """Full pipeline from one extremal non-sandwich element to a verdict.

    Simplicity is certified where decidable; over the rationals or large
    fields the caller must opt in with ``assume_simple``, which is recorded
    in the report.  A certified run on a 5-dimensional algebra over F5, the
    only kind that can be W(1;1), first tries ``_read_witt``, whose report
    is certified by the recognized isomorphism onto the simple witt5.
    """
    require_good_characteristic(l)
    x = l.check_vector(x)
    status = require_extremal(l, x)

    if assume_simple:
        simplicity = "assumed", "simplicity assumed by caller"
    else:
        if l.field.p == 5 and l.dim == 5:
            report = _read_witt(l, x, status)
            if report is not None:
                return report
        try:
            verdict = meataxe_simple(l)
        except CapabilityError:
            verdict = is_simple(l)
        if not verdict.simple:
            raise HypothesisError(f"the algebra is not simple ({verdict.detail})")
        simplicity = "certified", verdict.detail

    iso = None
    w = find_witness(l, status.functional)
    triple, _ = complete_sl2(l, status, w)
    grading = h_grading(l, triple)
    y_status = classify_element(l, triple.y)
    # an extremal y has [y, [y, L]] in F*y by bilinearity alone, no Jacobi identity
    quad = y_status.functional is not None or quadraticity_check(l, triple)
    if not quad:
        raise ContradictionError(
            "the nilnegative member does not act quadratically modulo the triple")
    outcome = dichotomy(l, triple, grading, y_status)
    if outcome.branch == "exceptional":
        iso = witt_recognize(l, triple, outcome.v)

    common = dict(
        field_characteristic=l.field.p,
        dim=l.dim,
        simplicity_mode=simplicity[0],
        simplicity_detail=simplicity[1],
        x=x,
        witness=w,
        triple=triple,
        grading=grading,
        quadratic_on_quotient=quad,
        note=outcome.note,
    )
    if iso is not None:
        if not assume_simple and not iso.span_equals_algebra:
            raise ContradictionError(
                "the recognized subalgebra is proper although the algebra is simple")
        return ClassificationReport(verdict=VERDICT_WITT, iso=iso, **common)

    certificates = [extremal_from_L1(l, triple, grading, z)
                    for z in grading.components[1].basis]
    generators = [x, triple.y] + [c.u for c in certificates]
    closure = subalgebra_closure(l, generators)
    if closure.dim != l.dim:
        raise ContradictionError("the certified generators do not regenerate the algebra")
    return ClassificationReport(
        verdict=VERDICT_GENERATED,
        certificates=tuple(certificates),
        generators=tuple(generators),
        closure_dim=closure.dim,
        **common,
    )
