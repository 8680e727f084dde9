import json
import random

import pytest

from lieext import (
    CapabilityError,
    ContradictionError,
    Field,
    HypothesisError,
    LieAlgebra,
    Subspace,
    builtin,
    classify_element,
    classify_theorem_main,
    dichotomy,
    exp_ad,
    extremal_from_L1,
    find_witness,
    h_grading,
    meataxe_simple,
    subalgebra_closure,
    complete_sl2,
    witt_recognize,
)
from lieext import classify, linalg
from lieext.algebra import from_json, to_json
from lieext.classify import VERDICT_GENERATED, VERDICT_WITT, WITT_IMAGES, WITT_RULES
from lieext.extremal import EXTREMAL
from lieext.linalg import Matrix, solve, vec_combine, vec_is_zero, vec_scale

from conftest import ad_chain, on_random_basis


def pipeline(l, x):
    st = classify_element(l, x)
    w = find_witness(l, st.functional)
    triple, _ = complete_sl2(l, st, w)
    grading = h_grading(l, triple)
    return triple, grading


def sl3_conjugation_oracle(p, z_idx, x_idx):
    """exp(ad_z)x computed as the matrix conjugation (1+z) x (1-z) for a
    square-zero 3x3 matrix z; independent of the bracket code."""
    units = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]

    def unit(idx):
        m = [[0] * 3 for _ in range(3)]
        m[units[idx][0]][units[idx][1]] = 1
        return m

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) % p for j in range(3)]
                for i in range(3)]

    def add(a, b, sign=1):
        return [[(x + sign * y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    z, x = unit(z_idx), unit(x_idx)
    assert mul(z, z) == [[0] * 3] * 3
    return mul(mul(add(eye, z), x), add(eye, z, -1))


def vector_to_sl3_matrix(l, v, p):
    units = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    m = [[0] * 3 for _ in range(3)]
    for idx, (i, j) in enumerate(units):
        m[i][j] = v[idx] % p
    # Cartan part: H1 = diag(1,-1,0), H2 = diag(0,1,-1)
    m[0][0] = v[6] % p
    m[1][1] = (v[7] - v[6]) % p
    m[2][2] = (-v[7]) % p
    return m


# -- the truncated exponential ---------------------------------------------------

def test_exp_ad_sl3_truncates_at_degree_one():
    l = builtin("sl3", 7)
    z, x = l.basis_vector(3), l.basis_vector(1)  # E21, E13
    u = exp_ad(l, ad_chain(l, z, x))
    expected = tuple(a + b for a, b in zip(l.basis_vector(1), l.basis_vector(2)))
    assert u == expected  # E13 + E23


def test_exp_ad_matches_matrix_conjugation():
    for p in (5, 7):
        l = builtin("sl3", p)
        for z_idx in (0, 2, 3, 5):
            u = exp_ad(l, ad_chain(l, l.basis_vector(z_idx), l.basis_vector(1)))
            assert vector_to_sl3_matrix(l, u, p) == sl3_conjugation_oracle(p, z_idx, 1)


def test_exp_ad_identity_on_zero(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    assert exp_ad(witt5, ad_chain(witt5, witt5.zero(), x)) == x


def test_exp_ad_witt5_shears_the_extremal_line(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    z = witt5.basis_vector(3)
    u = exp_ad(witt5, ad_chain(witt5, z, x))
    assert u == (0, 0, 4, 0, 1)  # -z^2 Dz + z^4 Dz
    # the image is again extremal: the extremal locus is the whole
    # (z^2 Dz, z^4 Dz)-plane, cf. the exhaustive scan tests
    assert classify_element(witt5, u).kind == EXTREMAL


def test_exp_ad_characteristic_guard():
    f = Field(3)
    l = LieAlgebra(f, ("a", "b"), {(0, 1): [(0, 1)]})
    with pytest.raises(CapabilityError):
        exp_ad(l, ad_chain(l, l.basis_vector(0), l.basis_vector(1)))  # [a, b] = a


def test_certified_classify_applies_no_matrix_inside_exp_ad(monkeypatch):
    """Each certificate hands exp_ad the chain a_k = ad_z^k(x) it checked, so
    exp_ad only sums it."""
    l = builtin("sl4", 5)
    applied, per_call = [], []
    apply, exp = Matrix.apply, classify.exp_ad

    def counting_apply(self, v):
        applied.append(v)
        return apply(self, v)

    def watched_exp_ad(*args):
        start = len(applied)
        u = exp(*args)
        per_call.append(len(applied) - start)
        return u

    monkeypatch.setattr(Matrix, "apply", counting_apply)
    monkeypatch.setattr(classify, "exp_ad", watched_exp_ad)
    report = classify_theorem_main(l, l.basis_vector(2))
    assert report.verdict == VERDICT_GENERATED and report.simplicity_mode == "certified"
    assert per_call == [0] * len(report.certificates) != []


# -- per-generator certificates ----------------------------------------------------

def test_certificate_sl3_first_generator():
    l = builtin("sl3", 7)
    triple, grading = pipeline(l, l.basis_vector(1))
    z = l.basis_vector(3)  # E21
    cert = extremal_from_L1(l, triple, grading, z)
    assert cert.alpha == 0
    assert cert.u == tuple(a + b for a, b in zip(l.basis_vector(1), l.basis_vector(2)))
    assert cert.span_dim == 5
    assert classify_element(l, cert.u).kind == EXTREMAL
    assert subalgebra_closure(l, [triple.x, triple.y, cert.u]).contains(z)
    assert len(cert.relations) == 20


def test_certificate_sl3_second_generator_matches_conjugation_oracle():
    l = builtin("sl3", 7)
    triple, grading = pipeline(l, l.basis_vector(1))
    z = l.basis_vector(5)  # E32
    cert = extremal_from_L1(l, triple, grading, z)
    assert vector_to_sl3_matrix(l, cert.u, 7) == sl3_conjugation_oracle(7, 5, 1)
    assert cert.u == (6, 1, 0, 0, 0, 0, 0, 0)  # E13 - E12
    assert classify_element(l, cert.u).kind == EXTREMAL


def test_certificate_degenerates_at_zero():
    l = builtin("sl3", 5)
    triple, grading = pipeline(l, l.basis_vector(1))
    cert = extremal_from_L1(l, triple, grading, l.zero())
    assert cert.u == triple.x
    assert cert.alpha == 0
    assert cert.span_dim == 3


def test_certificate_requires_membership_in_L1():
    l = builtin("sl3", 7)
    triple, grading = pipeline(l, l.basis_vector(1))
    with pytest.raises(HypothesisError):
        extremal_from_L1(l, triple, grading, l.basis_vector(0))  # E12 is in L_-1


def test_certificate_reconstruction_formula(witt5):
    # z = -[y,[z,x]] - 1/2 [y,[z,[z,x]]] - 1/6 [y,[z,[z,[z,x]]]] holds for
    # any certified generator; spot-check through the public certificate.
    l = builtin("sl4", 5)
    triple, grading = pipeline(l, l.basis_vector(2))
    for z in grading.components[1].basis:
        cert = extremal_from_L1(l, triple, grading, z)
        assert cert.z == z
        assert cert.span_dim <= 8


def test_certificate_span_can_reach_eight():
    # In sl4 a generic label-1 element has a nonzero quartic coefficient and
    # needs the full eight-element span.
    l = builtin("sl4", 7)
    triple, grading = pipeline(l, l.basis_vector(2))
    f = l.field
    basis = grading.components[1].basis
    z = tuple(f.add(u, v) for u, v in zip(basis[0], basis[2]))
    cert = extremal_from_L1(l, triple, grading, z)
    assert cert.alpha != 0
    assert cert.span_dim == 8


def test_certificate_derived_bracket_sign():
    # ad_z([[h1,z],x]) equals +alpha/2 * h: with [h1, x] = 0 the Jacobi
    # identity gives 2 ad_z([[h1,z],x]) = [ad_z([h1,z]), x], and
    # ad_z([h1,z]) = -ad_z^4(x) = -alpha*y, so the bracket with x is alpha*h.
    l = builtin("sl4", 7)
    triple, grading = pipeline(l, l.basis_vector(2))
    f = l.field
    basis = grading.components[1].basis
    z = tuple(f.add(u, v) for u, v in zip(basis[0], basis[2]))
    cert = extremal_from_L1(l, triple, grading, z)
    h1 = cert.h1
    lhs = l.bracket(z, l.bracket(l.bracket(h1, z), triple.x))
    assert lhs == vec_scale(f, f.div(cert.alpha, f.of(2)), triple.h)
    assert vec_is_zero(l.bracket(h1, triple.x))


def test_certificate_alpha_can_be_nonzero():
    l = builtin("sl4", 7)
    triple, grading = pipeline(l, l.basis_vector(2))
    f = l.field
    # combinations of the echelon basis of L1 explore nonzero quartic terms
    basis = grading.components[1].basis
    seen_nonzero = False
    for a in range(4):
        for b in range(4):
            z = tuple(f.add(f.mul(f.of(a), u), f.mul(f.of(b), v))
                      for u, v in zip(basis[0], basis[2]))
            cert = extremal_from_L1(l, triple, grading, z)
            ad4 = l.bracket(z, l.bracket(z, l.bracket(z, l.bracket(z, triple.x))))
            assert ad4 == vec_scale(f, cert.alpha, triple.y)
            seen_nonzero |= cert.alpha != 0
    assert seen_nonzero


# -- Witt recognition -----------------------------------------------------------------

def test_witt_recognize_on_witt5(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    triple, grading = pipeline(witt5, x)
    res = dichotomy(witt5, triple, grading, classify_element(witt5, triple.y))
    iso = witt_recognize(witt5, triple, res.v)
    assert iso.target == "W"
    assert iso.spanning[3] == (0, 0, 0, 0, 2)      # v = 2 z^4 Dz
    assert iso.spanning[4] == (0, 0, 0, 2, 0)      # [v, y] = 2 z^3 Dz
    assert vec_is_zero(iso.spanning[5])
    assert len(iso.rules) == 16
    assert iso.span_equals_algebra
    assert [img for _, img in iso.phi] == [
        ["0", "0", "4", "0", "0"],
        ["1", "0", "0", "0", "0"],
        ["0", "2", "0", "0", "0"],
        ["0", "0", "0", "0", "2"],
        ["0", "0", "0", "2", "0"],
    ]


def test_witt_recognize_on_extension(wittext5):
    f = wittext5.field
    x = (0, 0, f.of(-1), 0, 0, 0)
    triple, grading = pipeline(wittext5, x)
    res = dichotomy(wittext5, triple, grading, classify_element(wittext5, triple.y))
    iso = witt_recognize(wittext5, triple, res.v)
    assert iso.target == "W_tilde"
    assert iso.spanning[5] == (0, 0, 0, 0, 0, 1)   # exactly z^6 Dz
    assert iso.span_equals_algebra


def test_witt_recognize_rescaled_input(witt5):
    # replacing x by a scalar multiple rescales the solved v but lands on the
    # same target after re-running the construction
    f = witt5.field
    for lam in (2, 3, 4):
        x = vec_scale(f, f.of(lam), (0, 0, f.of(-1), 0, 0))
        triple, grading = pipeline(witt5, x)
        res = dichotomy(witt5, triple, grading, classify_element(witt5, triple.y))
        iso = witt_recognize(witt5, triple, res.v)
        assert iso.target == "W"


def test_witt_recognize_rejects_bad_v(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    triple, grading = pipeline(witt5, x)
    with pytest.raises(HypothesisError):
        witt_recognize(witt5, triple, witt5.basis_vector(3))


def witt_case(l, x):
    triple, grading = pipeline(l, x)
    return triple, dichotomy(l, triple, grading, classify_element(l, triple.y)).v


def test_witt_rules_are_the_fifteen_pairs_in_order():
    assert [(a, b) for _, a, b, _ in WITT_RULES] == [
        (a, b) for a in range(6) for b in range(a + 1, 6)]


@pytest.mark.parametrize("row", range(len(WITT_RULES)))
def test_witt_recognize_checks_every_row_on_the_input(witt5, monkeypatch, row):
    # one wrong coefficient, on x, which is never zero
    name, a, b, rhs = WITT_RULES[row]
    wrong = dict(rhs)
    wrong[0] = wrong.get(0, 0) + 1
    rules = list(WITT_RULES)
    rules[row] = (name, a, b, wrong)
    monkeypatch.setattr(classify, "WITT_RULES", tuple(rules))
    triple, v = witt_case(witt5, (0, 0, witt5.field.of(-1), 0, 0))
    with pytest.raises(HypothesisError) as err:
        witt_recognize(witt5, triple, v)
    assert str(err.value) == f"multiplication rule failed: {name}"


def model_failures(name, images):
    """The pairs (a, b) whose row of WITT_RULES fails on ``images``, one dict
    of coordinates per spanning vector as in WITT_IMAGES, in the builtin
    model ``name`` over F5."""
    model = builtin(name, 5)
    f = model.field
    vecs = [tuple(f.of(img.get(k, 0)) for k in range(model.dim)) for img in images]
    return [(a, b) for _, a, b, rhs in WITT_RULES
            if model.bracket(vecs[a], vecs[b]) != classify._rule_value(f, rhs, vecs)]


@pytest.mark.parametrize("name", ["witt5", "wittext5"])
def test_witt_images_preserve_the_model_bracket(name):
    # witt_recognize checks the rows on the input only; that they hold on
    # the images in the model depends on these constants alone
    assert model_failures(name, WITT_IMAGES) == []


def test_witt5_is_simple():
    # the first premise of the isomorphism certificate classify gives witt5
    verdict = meataxe_simple(builtin("witt5", 5))
    assert verdict.simple, verdict.detail


def test_witt_images_are_a_basis_of_witt5():
    # the second premise: the basis map onto WITT_IMAGES[:5] is a bijection
    model = builtin("witt5", 5)
    images = [[img.get(k, 0) for k in range(model.dim)] for img in WITT_IMAGES[:5]]
    assert Subspace.span(model.field, model.dim, images).dim == 5


@pytest.mark.parametrize("i,j", [(0, 1), (1, 2), (2, 3), (3, 4)])
def test_witt_recognize_rejects_swapped_images(i, j):
    # the model check that witt_recognize's basis map rests on catches a swap
    images = list(WITT_IMAGES)
    images[i], images[j] = images[j], images[i]
    assert model_failures("witt5", images) and model_failures("wittext5", images)


@pytest.mark.parametrize("name, assume_simple", [("witt5", False), ("wittext5", True)])
def test_witt_classify_builds_no_model(name, assume_simple, monkeypatch):
    """witt_recognize reads phi off WITT_IMAGES without building the model."""
    from lieext import algebra

    l = builtin(name, 5)
    built = []

    def counting_builtin(*args):
        built.append(args)
        return builtin(*args)

    # wherever a lieext module could call it from
    for module in (algebra, classify):
        monkeypatch.setattr(module, "builtin", counting_builtin, raising=False)
    report = classify_theorem_main(l, (0, 0, l.field.of(-1)) + (0,) * (l.dim - 3),
                                   assume_simple=assume_simple)
    assert report.verdict == VERDICT_WITT
    assert built == []


def solve_reference(l, iso):
    """Solve for the coordinates of every bracket of active spanning vectors:
    they are the coefficients of the matching row of WITT_RULES, and their
    image under phi is the model's bracket of the images."""
    f = l.field
    model = builtin("wittext5" if iso.target == "W_tilde" else "witt5", 5)
    mf = model.field
    images = [tuple(mf.parse(c) for c in img) for _, img in iso.phi]
    active = iso.spanning[:len(images)]
    basis = Matrix.from_columns(f, active)
    rows = {(a, b): rhs for _, a, b, rhs in WITT_RULES}
    for a in range(len(active)):
        for b in range(a + 1, len(active)):
            coeffs = solve(basis, l.bracket(active[a], active[b]))
            assert coeffs == tuple(f.of(rows[a, b].get(k, 0)) for k in range(len(active)))
            assert vec_combine(mf, coeffs, images) == model.bracket(images[a], images[b])


@pytest.mark.parametrize("name", ["witt5", "wittext5"])
def test_witt_recognize_phi_agrees_with_solve_reference(name):
    l = builtin(name, 5)
    x = (0, 0, l.field.of(-1)) + (0,) * (l.dim - 3)
    cases = [(l, x)]
    for seed in (1, 2, 3):
        dense, old_basis = on_random_basis(l, random.Random(seed))
        cases.append((dense, vec_combine(l.field, x, old_basis)))
    for alg, vec in cases:
        triple, v = witt_case(alg, vec)
        iso = witt_recognize(alg, triple, v)
        assert iso.target == ("W" if name == "witt5" else "W_tilde")
        solve_reference(alg, iso)


def test_witt_recognize_bracket_count(witt5, monkeypatch):
    """19 brackets, all on the input: [y,[y,v]], [v,y], [v,[v,y]] and one
    per row; no linear solve."""
    triple, v = witt_case(witt5, (0, 0, witt5.field.of(-1), 0, 0))
    brackets, solves = [], []
    bracket = LieAlgebra.bracket

    def counting_bracket(self, u, w):
        brackets.append((self, u, w))
        return bracket(self, u, w)

    def counting_solve(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(LieAlgebra, "bracket", counting_bracket)
    monkeypatch.setattr(linalg, "solve", counting_solve)
    monkeypatch.setattr(classify, "solve", counting_solve, raising=False)
    witt_recognize(witt5, triple, v)
    assert len(brackets) == 19 and all(alg is witt5 for alg, _, _ in brackets)
    assert solves == []


def test_witt_recognize_characteristic_guard():
    l = builtin("sl3", 7)
    triple, grading = pipeline(l, l.basis_vector(1))
    with pytest.raises(HypothesisError):
        witt_recognize(l, triple, l.basis_vector(0))


# -- the full pipeline ------------------------------------------------------------------

def test_classify_witt5(witt5):
    f = witt5.field
    rep = classify_theorem_main(witt5, (0, 0, f.of(-1), 0, 0))
    assert rep.verdict == VERDICT_WITT
    assert rep.triple.y == witt5.basis_vector(0)
    assert rep.triple.h == (0, 2, 0, 0, 0)
    assert rep.grading.dims() == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}
    assert rep.iso.target == "W"
    assert rep.simplicity_mode == "certified"


@pytest.mark.parametrize("name, calls", [("witt5", 0), ("sl3", 1)])
def test_certified_classify_skips_the_meataxe_only_on_a_recognized_witt_basis(name, calls, monkeypatch):
    # witt5 is certified simple by its recognized basis, sl3/F5 by the MeatAxe
    l = builtin(name, 5)
    x = (0, 0, 4, 0, 0) if name == "witt5" else l.basis_vector(1)
    seen = []
    meataxe = classify.meataxe_simple
    monkeypatch.setattr(classify, "meataxe_simple", lambda alg: seen.append(alg) or meataxe(alg))
    rep = classify_theorem_main(l, x)
    assert rep.simplicity_mode == "certified"
    assert len(seen) == calls
    assert (rep.simplicity_detail == "the recognized basis satisfies the multiplication "
            "table of the simple Witt algebra W(1;1)") == (name == "witt5")


def test_certified_classify_falls_back_to_is_simple(monkeypatch):
    # with no kernel line budget meataxe_simple gives up, and the pipeline
    # certifies simplicity by enumeration instead, over sl2/F5's 31 lines
    # (witt5 is certified by its isomorphism and never reaches the MeatAxe)
    from lieext import algebra

    l = builtin("sl2", 5)
    monkeypatch.setattr(algebra, "MEATAXE_LINE_BUDGET", 0)
    with pytest.raises(CapabilityError, match="small enough kernel"):
        algebra.meataxe_simple(l)
    rep = classify_theorem_main(l, l.basis_vector(0))
    assert rep.simplicity_mode == "certified"
    assert rep.simplicity_detail == "every projective point generates"
    assert rep.verdict == VERDICT_GENERATED


def test_classify_sl3_regular_at_both_characteristics():
    for p in (5, 7):
        l = builtin("sl3", p)
        rep = classify_theorem_main(l, l.basis_vector(1))
        assert rep.verdict == VERDICT_GENERATED
        assert len(rep.generators) == 4
        assert rep.closure_dim == 8
        assert len(rep.certificates) == 2
        assert [c.z for c in rep.certificates] == [l.basis_vector(3), l.basis_vector(5)]
        # independent re-verification of the generator closure
        assert subalgebra_closure(l, rep.generators).dim == 8
        for c in rep.certificates:
            assert classify_element(l, c.u).kind == EXTREMAL


def test_classify_sl2_yields_the_pair():
    l = builtin("sl2", 5)
    rep = classify_theorem_main(l, l.basis_vector(0))
    assert rep.verdict == VERDICT_GENERATED
    assert rep.generators == (l.basis_vector(0), l.basis_vector(1))
    assert rep.certificates == ()
    assert rep.closure_dim == 3


def test_classify_sl4():
    l = builtin("sl4", 7)
    rep = classify_theorem_main(l, l.basis_vector(2))
    assert rep.verdict == VERDICT_GENERATED
    assert rep.closure_dim == 15
    assert len(rep.certificates) == 4


def test_classify_is_deterministic(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    a = classify_theorem_main(witt5, x).to_dict()
    b = classify_theorem_main(witt5, x).to_dict()
    assert a == b
    import json

    assert json.dumps(a) == json.dumps(b)


def test_classify_rejects_non_extremal(witt5):
    with pytest.raises(HypothesisError):
        classify_theorem_main(witt5, witt5.basis_vector(0))
    with pytest.raises(HypothesisError):
        classify_theorem_main(witt5, witt5.basis_vector(4))  # sandwich


def test_classify_rejects_non_simple_input(wittext5):
    f = wittext5.field
    with pytest.raises(HypothesisError):
        classify_theorem_main(wittext5, (0, 0, f.of(-1), 0, 0, 0))


def test_classify_extension_under_assumption(wittext5):
    f = wittext5.field
    rep = classify_theorem_main(wittext5, (0, 0, f.of(-1), 0, 0, 0), assume_simple=True)
    assert rep.verdict == VERDICT_WITT
    assert rep.iso.target == "W_tilde"
    assert rep.simplicity_mode == "assumed"
    assert rep.iso.span_equals_algebra  # happens to span despite non-simplicity


def test_classify_over_rationals_needs_assumption():
    l = builtin("sl3", 0)
    with pytest.raises(CapabilityError):
        classify_theorem_main(l, l.basis_vector(1))
    rep = classify_theorem_main(l, l.basis_vector(1), assume_simple=True)
    assert rep.verdict == VERDICT_GENERATED
    assert rep.closure_dim == 8
    assert rep.simplicity_mode == "assumed"


def test_classify_contradiction_on_corrupt_tensor():
    f = Field(7)
    l = LieAlgebra(f, ["x", "y", "h", "m", "n"], {
        (0, 1): [(2, 1)],
        (0, 2): [(0, -2)],
        (1, 2): [(1, 2)],
        (1, 3): [(4, 1)],
        (1, 4): [(0, 1)],
        (2, 3): [(3, 1)],
        (2, 4): [(4, -1)],
    })
    with pytest.raises(ContradictionError):
        classify_theorem_main(l, l.basis_vector(0), assume_simple=True)


@pytest.mark.parametrize("name, p, bracket, coeff, x_index, error, message", [
    ("sl3", 7, (2, 5), "4", 2, ContradictionError, "certificate relation failed: rel6"),
    ("sl3", 7, (5, 6), "5", 1, ContradictionError,
     "regular-branch verification failed: x_maps_L1_onto_L-1"),
    ("witt5", 5, (0, 4), "3", 2, HypothesisError, "multiplication rule failed: [x,[v,y]]=-v"),
])
def test_a_failing_relation_is_reported_by_name(name, p, bracket, coeff, x_index, error, message):
    # One structure constant of a builtin changed: every stage before the
    # named relation still passes, and the run stops at that relation.
    doc = json.loads(to_json(builtin(name, p)))
    (entry,) = [e for e in doc["brackets"] if (e["i"], e["j"]) == bracket]
    (term,) = entry["terms"]
    term[1] = coeff
    l = from_json(json.dumps(doc))
    with pytest.raises(error) as info:
        classify_theorem_main(l, l.basis_vector(x_index), assume_simple=True)
    assert str(info.value) == message


@pytest.mark.parametrize("name, p, x_index", [("sl3", 7, 1), ("sl4", 5, 2), ("witt5", 5, 2)])
def test_classification_is_invariant_under_a_random_change_of_basis(name, p, x_index, rng):
    l = builtin(name, p)
    standard = classify_theorem_main(l, l.basis_vector(x_index))
    dense, old_basis = on_random_basis(l, rng)
    moved = classify_theorem_main(dense, old_basis[x_index])
    assert moved.simplicity_mode == standard.simplicity_mode == "certified"
    assert moved.verdict == standard.verdict
    assert moved.grading.dims() == standard.grading.dims()


def test_certificate_records_the_eight_span_vectors():
    from lieext import Subspace

    l = builtin("sl4", 7)
    triple, grading = pipeline(l, l.basis_vector(2))
    f = l.field
    basis = grading.components[1].basis
    z = tuple(f.add(u, v) for u, v in zip(basis[0], basis[2]))
    cert = extremal_from_L1(l, triple, grading, z)
    assert len(cert.b_vectors) == 8
    assert subalgebra_closure(l, [triple.x, triple.y, z]) == \
        Subspace.span(f, l.dim, cert.b_vectors)


# -- the eight-set off the ad_z chain ----------------------------------------------------

@pytest.mark.parametrize("n, p", [(3, 5), (3, 7), (4, 5), (4, 7), (5, 7)])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_certificate_eight_set_matches_the_direct_brackets(n, p, seed):
    # [x,z], h1 = [[x,z],z], [h1,z] and [[h1,z],x] computed by the bracket,
    # as written in the paper, against what the certificate reads off the chain.
    from lieext.algebra import _sl

    l = _sl(Field(p), n)
    x = l.basis_vector(n - 2)                   # E1n
    if seed is not None:
        l, old_basis = on_random_basis(l, random.Random(seed))
        x = old_basis[n - 2]
    triple, grading = pipeline(l, x)
    for z in grading.components[1].basis:
        cert = extremal_from_L1(l, triple, grading, z)
        xz = l.bracket(triple.x, z)
        h1 = l.bracket(xz, z)
        h1z = l.bracket(h1, z)
        b_minus = l.bracket(h1z, triple.x)
        assert cert.h1 == h1
        assert cert.b_vectors == (triple.x, xz, b_minus, triple.h, h1, z, h1z, triple.y)


@pytest.mark.parametrize("p", [7, 0])
def test_chain_identities_hold_on_a_table_that_breaks_jacobi(p):
    # The identities the certificate relies on use antisymmetry and
    # bilinearity only, so they hold on a table with no Jacobi identity.
    f, r = Field(p), random.Random(p + 13)
    n = 6
    table = {(i, j): [(k, f.random(r)) for k in range(n)]
             for i in range(n) for j in range(i + 1, n)}
    l = LieAlgebra(f, tuple(f"b{i}" for i in range(n)), table)
    assert not l.validate().ok
    minus_one = f.neg(f.one)
    for _ in range(20):
        x = tuple(f.random(r) for _ in range(n))
        z = tuple(f.random(r) for _ in range(n))
        a1 = l.bracket(z, x)
        a2 = l.bracket(z, a1)
        a3 = l.bracket(z, a2)
        xz = l.bracket(x, z)
        assert xz == vec_scale(f, minus_one, a1)
        assert l.bracket(xz, z) == a2
        assert l.bracket(a2, z) == vec_scale(f, minus_one, a3)
        assert l.bracket(l.bracket(a2, z), x) == l.bracket(x, a3)


@pytest.mark.parametrize("name, p, x_index", [("sl3", 7, 1), ("sl4", 5, 2)])
def test_certificate_bracket_count(name, p, x_index, monkeypatch):
    """No dense bracket per generator: every relation applies ad(x), ad(y),
    ad(z) or ad(u), each built once; exp_ad sums the chain of that ad(z), and u
    is checked extremal on the columns of that ad(u)."""
    l = builtin(name, p)
    triple, grading = pipeline(l, l.basis_vector(x_index))
    brackets, ads = [], []
    bracket, ad = LieAlgebra.bracket, LieAlgebra.ad

    def counting_bracket(self, u, v):
        brackets.append((u, v))
        return bracket(self, u, v)

    def counting_ad(self, v):
        ads.append(tuple(v))
        return ad(self, v)

    monkeypatch.setattr(LieAlgebra, "bracket", counting_bracket)
    monkeypatch.setattr(LieAlgebra, "ad", counting_ad)
    for z in grading.components[1].basis:
        brackets.clear()
        ads.clear()
        cert = extremal_from_L1(l, triple, grading, z)
        assert brackets == []
        assert ads == [triple.x, triple.y, z, cert.u]


@pytest.mark.parametrize("name, p, x_index", [("sl3", 7, 1), ("sl4", 5, 2)])
def test_certified_pipeline_builds_each_adjoint_once(name, p, x_index, monkeypatch):
    """ad keeps the last 2 * dim matrices it built, and a certified run asks
    for fewer distinct operands than that, so every repeated ad(v), from the
    simplicity closures to the certificates and subalgebra_closure, is the
    matrix built the first time."""
    l = builtin(name, p)
    built = {}
    ad = LieAlgebra.ad

    def recording_ad(self, v):
        m = ad(self, v)
        built.setdefault(tuple(v), []).append(m)
        return m

    monkeypatch.setattr(LieAlgebra, "ad", recording_ad)
    report = classify.classify_theorem_main(l, l.basis_vector(x_index))
    assert report.verdict == VERDICT_GENERATED
    assert len(built) <= 2 * l.dim
    assert sum(map(len, built.values())) > len(built)
    assert all(m is first for first, *rest in built.values() for m in rest)


@pytest.mark.parametrize("name, p, x_index", [
    ("sl4", 5, 2),          # E14: the regular branch
    ("witt5", 5, 2),        # z^2*Dz: the exceptional branch
])
def test_certified_pipeline_classifies_x_once_and_y_once(name, p, x_index, monkeypatch):
    """The sl2 stage takes the status require_extremal returned for x, and
    dichotomy the status classify took for y before quadraticity, so each is
    classified once, on both branches."""
    from lieext import extremal

    l = builtin(name, p)
    operands = []
    original = extremal.classify_element

    def counting(alg, v):
        operands.append(tuple(v))
        return original(alg, v)

    for module in (extremal, classify):
        monkeypatch.setattr(module, "classify_element", counting)
    report = classify_theorem_main(l, l.basis_vector(x_index))
    assert operands == [report.x, report.triple.y]


@pytest.mark.parametrize("name, p, seed, assume_simple, products", [
    *[(name, p, seed, False, 0)
      for name, p in (("sl3", 7), ("sl4", 5), ("sl5", 7)) for seed in (None, 1)],
    ("witt5", 5, None, False, 1),
    ("witt5", 5, 1, False, 1),
    ("witt5", 5, None, True, 1),
    ("wittext5", 5, None, True, 1),
])
def test_classify_multiplies_matrices_only_when_y_is_not_extremal(
        name, p, seed, assume_simple, products, monkeypatch):
    # An extremal y settles quadraticity, so the regular branch makes no
    # matrix product; on the Witt branch y is not extremal and
    # quadraticity_check multiplies the quotient action by itself once.
    # The witt5 classify jobs, certified and assumed, are then the only
    # callers of Matrix.mul in both benchmark workloads, whose traced run
    # requires that it be called.
    from lieext.algebra import _sl

    if name.startswith("witt"):
        l, x_index = builtin(name, p), 2
    else:
        l, x_index = _sl(Field(p), int(name[2:])), int(name[2:]) - 2
    x = l.basis_vector(x_index)
    if seed is not None:
        l, old_basis = on_random_basis(l, random.Random(seed))
        x = old_basis[x_index]
    calls = []
    mul = Matrix.mul

    def counting(self, other):
        calls.append((self.rows, other.cols))
        return mul(self, other)

    monkeypatch.setattr(Matrix, "mul", counting)
    report = classify_theorem_main(l, x, assume_simple=assume_simple)
    assert report.quadratic_on_quotient
    assert report.verdict == (VERDICT_WITT if name.startswith("witt") else VERDICT_GENERATED)
    assert calls == [(l.dim - 3, l.dim - 3)] * products


# -- the certificate's spans against the closures they replace ---------------------------

def closure_oracle(l, gens):
    """The closure of ``gens`` under their own adjoints, as the certificate
    took it before reading <x, y, z> and <x, y, u> off its relations."""
    actions = [l.ad(g).apply for g in gens]
    return linalg.GrowingSpan(l.field, l.dim)._close(actions, gens).to_subspace()


@pytest.mark.parametrize("n, p, seed", [
    (n, p, seed) for n in (3, 4, 5) for p in (5, 7, 0) for seed in (None, 1)
    if (n, p, seed) != (5, 0, 1)])
def test_certificate_spans_match_the_closures_they_replace(n, p, seed):
    # Every generator of a run from x = E1n: <x, y, z> and <x, y, u>, closed
    # as before, are both the span of the eight, and z has the same
    # coordinates over <x, y, u>.  Simplicity is assumed over Q and on
    # sl5/F5, whose centre is the scalar matrices.  sl5/Q on a dense basis
    # (about 40 s) is left out for time, as in tests/test_cert_replay.py.
    from lieext import Subspace
    from lieext.algebra import _sl

    l = _sl(Field(p), n)
    x = l.basis_vector(n - 2)
    if seed is not None:
        l, old_basis = on_random_basis(l, random.Random(seed))
        x = old_basis[n - 2]
    report = classify_theorem_main(l, x, assume_simple=p == 0 or (n, p) == (5, 5))
    assert report.verdict == VERDICT_GENERATED
    assert len(report.certificates) == 2 * (n - 2)
    for cert in report.certificates:
        t = report.triple
        xyz = closure_oracle(l, [t.x, t.y, cert.z])
        xyu = closure_oracle(l, [t.x, t.y, cert.u])
        assert xyz == xyu == Subspace.span(l.field, l.dim, cert.b_vectors)
        assert cert.span_dim == xyz.dim
        assert cert.membership_coords == xyu.coords(cert.z)


def ad_u_leaving_the_span(l, cert):
    """ad(u) with one entry (k, j) changed, such that u stays extremal and
    [[y,u],u] = -2u still holds but ad(u) no longer maps the span of the
    eight into itself: row j and column k of ad(u) are zero, so ad(u)^2 and
    ad(u)[y,u] do not change, some of the eight has a nonzero coordinate j,
    and b_k lies outside their span.  None when there is no such entry."""
    from lieext import Subspace

    f, n = l.field, l.dim
    data = l.ad(cert.u).data
    span = Subspace.span(f, n, cert.b_vectors)
    for j in range(n):
        if any(data[j]) or not any(e[j] for e in cert.b_vectors):
            continue
        for k in range(n):
            if any(row[k] for row in data) or span.contains(l.basis_vector(k)):
                continue
            changed = [list(row) for row in data]
            changed[k][j] = f.one
            return Matrix(f, n, n, tuple(map(tuple, changed)))
    return None


def test_ad_u_leaving_the_span_fails_z_in_xyu(monkeypatch, tmp_path, capsys):
    # The certificate reads <x, y, u> off the span of the eight once ad(u)
    # maps that span into itself; one changed entry of ad(u) that keeps
    # every earlier relation true must stop it at z_in_<x,y,u>, in the
    # library and through the command line (exit 3).
    from lieext.cli import EXIT_CONTRADICTION, run

    l = builtin("sl4", 5)
    report = classify_theorem_main(l, l.basis_vector(2))
    cert, matrix = next((c, m) for c in report.certificates
                        if (m := ad_u_leaving_the_span(l, c)) is not None)

    ad = LieAlgebra.ad
    monkeypatch.setattr(LieAlgebra, "ad",
                        lambda self, v: matrix if tuple(v) == cert.u else ad(self, v))
    with pytest.raises(ContradictionError) as info:
        extremal_from_L1(l, report.triple, report.grading, cert.z)
    assert str(info.value) == "certificate relation failed: z_in_<x,y,u>"

    path = tmp_path / "sl4_f5.json"
    path.write_text(to_json(l))
    assert run(["classify", str(path), "--x", "0,0,1" + ",0" * 12]) == EXIT_CONTRADICTION
    assert capsys.readouterr().err == \
        "contradiction: certificate relation failed: z_in_<x,y,u>\n"


def test_certificate_checks_the_triple_bracket():
    # The table behind the two spans uses [x, y] = h; a triple built by hand
    # without it is refused before any relation is checked.
    from lieext import Sl2Triple

    l = builtin("sl3", 7)
    triple, grading = pipeline(l, l.basis_vector(1))
    wrong = Sl2Triple(triple.x, triple.y, vec_scale(l.field, 2, triple.h))
    with pytest.raises(HypothesisError, match=r"\[x, y\] = h"):
        extremal_from_L1(l, wrong, grading, l.basis_vector(3))
