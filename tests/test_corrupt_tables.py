"""Valid but corrupt algebra files: a table of a known algebra with one to
three structure constants changed still parses, so every command must get
through it to a documented exit code (0-3), never to an internal error (4)
or an escaping exception, whatever the broken Jacobi identity does to the
pipeline."""

import json
import random
from collections import Counter

import pytest

from lieext import (CapabilityError, Field, HypothesisError, LieAlgebra, LieextError, builtin,
                    classify, classify_element, classify_theorem_main, complete_sl2,
                    extremal_from_L1, find_witness, h_grading, is_simple, meataxe_simple,
                    quadraticity_check, to_json)
from lieext.algebra import _sl
from lieext.cli import EXIT_CONTRADICTION, EXIT_INTERNAL, EXIT_OK, run
from lieext.extremal import EXTREMAL, require_extremal
from lieext.linalg import vec_combine, vec_is_zero
from lieext.sl2 import require_good_characteristic

from conftest import SIMPLE_CASES, designated as designated_simple, on_random_basis

# name, p, designated extremal x
ALGEBRAS = [
    ("sl3", 5, 1), ("sl3", 7, 1), ("sl3", 0, 1), ("sl4", 7, 2),
    ("witt5", 5, None), ("wittext5", 5, None),
]
PERTURBATIONS = 10  # corrupt tables per algebra


def designated(l, x_index):
    if x_index is not None:
        return l.basis_vector(x_index)
    return (0, 0, l.field.of(-1)) + (0,) * (l.dim - 3)   # -z^2 Dz


def perturbed(l, rng):
    """``l`` with one to three structure constants [b_i, b_j]_k set to a new
    value, possibly zero."""
    f, n = l.field, l.dim
    table = {pair: dict(terms) for pair, terms in l.table.items()}
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(range(n), 2))
        k = rng.randrange(n)
        terms = table.setdefault((i, j), {})
        old = terms.get(k, f.zero)
        new = old
        while new == old:
            new = f.random(rng)
        terms[k] = new
    return LieAlgebra(f, l.names, {pair: list(t.items()) for pair, t in table.items()})


@pytest.mark.parametrize("name, p, x_index", ALGEBRAS)
def test_corrupt_tables_end_in_a_documented_exit_code(name, p, x_index, tmp_path, capsys):
    l = builtin(name, p)
    x = designated(l, x_index)
    st = classify_element(l, x)
    t, _ = complete_sl2(l, st, find_witness(l, st.functional))
    coords = [",".join(map(l.field.format, v)) for v in (t.x, t.y)]
    rng = random.Random(f"{name}/{p}")
    codes = set()
    for n in range(PERTURBATIONS):
        path = tmp_path / f"{name}_{p}_{n}.json"
        path.write_text(to_json(perturbed(l, rng)))
        for argv in (["classify", str(path), "--x", coords[0]],
                     ["classify", str(path), "--x", coords[0], "--assume-simple"],
                     ["sl2", str(path), "--x", coords[0]],
                     ["grade", str(path), "--x", coords[0], "--y", coords[1]]):
            code = run(argv)
            err = capsys.readouterr().err
            assert code != EXIT_INTERNAL, (argv, path.read_text(), err)
            assert 0 <= code <= 3, argv
            codes.add(code)
    assert codes - {0}, "no perturbation changed an outcome"


def quadraticity_cases():
    """(label, algebra, x): the perturbed tables of the test above, drawn
    from the same seeds, then sl3-sl5 over F5 and F7 on two random bases
    each, with x = E1n."""
    for name, p, x_index in ALGEBRAS:
        l = builtin(name, p)
        rng = random.Random(f"{name}/{p}")
        for n in range(PERTURBATIONS):
            yield f"{name}/{p} corrupt {n}", perturbed(l, rng), designated(l, x_index)
    for n in (3, 4, 5):
        for p in (5, 7):
            for seed in (1, 2):
                dense, old_basis = on_random_basis(_sl(Field(p), n), random.Random(seed))
                yield f"sl{n}/{p} basis {seed}", dense, old_basis[n - 2]


def test_extremal_y_settles_quadraticity_as_the_product_does(tmp_path, capsys):
    """classify records y's quadratic action without the matrix product when
    y has an extremal functional, since [y, [y, L]] then lies in F*y by
    bilinearity alone.  On every triple built here, Jacobi broken or not, the
    product computed by quadraticity_check agrees: it is zero whenever y has
    a functional, and classify's report and exit code follow the product."""
    seen = Counter()
    for label, l, x in quadraticity_cases():
        st = classify_element(l, x)
        if st.kind != EXTREMAL:
            continue
        try:
            t, _ = complete_sl2(l, st, find_witness(l, st.functional))
        except HypothesisError:
            continue
        product = quadraticity_check(l, t)
        y_has_functional = classify_element(l, t.y).functional is not None
        if y_has_functional:
            assert product, label
        try:
            h_grading(l, t)
            graded = True
        except HypothesisError:
            graded = False
        path = tmp_path / "case.json"
        path.write_text(to_json(l))
        code = run(["classify", str(path), "--x", ",".join(map(l.field.format, x)),
                    "--assume-simple"])
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert product and json.loads(out)["quadratic_on_quotient"] is True, label
        if graded:
            assert (code == EXIT_CONTRADICTION and "act quadratically" in err) == (not product), label
        seen[y_has_functional, product] += 1
    # both ways through the shortcut, and products that fail, are exercised
    assert seen[True, True] and seen[False, True] and seen[False, False], seen
    assert not seen[True, False]


def exp_ad_reference(l, adz, x):
    """exp(ad_z) x computed from ad(z) itself: ad_z applied four times to x,
    and a fifth time to check that it vanishes."""
    require_good_characteristic(l)
    x = l.check_vector(x)
    f = l.field
    terms = [x]
    for _ in range(4):
        terms.append(adz.apply(terms[-1]))
    if not vec_is_zero(adz.apply(terms[-1])):
        raise HypothesisError("ad_z is not nilpotent of order 5 on x")
    return vec_combine(f, [f.one, f.one] + [f.inv(f.of(k)) for k in (2, 6, 24)], terms)


def outcome(run_certificate):
    try:
        return run_certificate()
    except LieextError as err:
        return type(err), str(err)


def test_certificates_exponentiate_as_the_reference_does(monkeypatch):
    """A certificate sums the chain it checked, relying on rel4 and rel12 for
    ad_z^5(x) = 0.  With exp_ad swapped for the reference, which applies
    ad(z) itself and checks the fifth power, every certificate built on the
    designated triples, the dense bases and the perturbed tables comes out
    the same, or fails with the same first error."""
    cases = [(f"{name}/{p}", *designated_simple(name, p)) for name, p, _ in SIMPLE_CASES]
    seen = Counter()
    for label, l, x in cases + list(quadraticity_cases()):
        st = classify_element(l, x)
        if st.kind != EXTREMAL:
            continue
        try:
            t, _ = complete_sl2(l, st, find_witness(l, st.functional))
            g = h_grading(l, t)
        except LieextError:
            continue
        for z in g.components[1].basis:
            got = outcome(lambda: extremal_from_L1(l, t, g, z))
            with monkeypatch.context() as m:
                m.setattr(classify, "exp_ad",
                          lambda alg, chain: exp_ad_reference(alg, alg.ad(z), chain[0]))
                want = outcome(lambda: extremal_from_L1(l, t, g, z))
            assert got == want, label
            seen[isinstance(got, classify.ExtremalGenCertificate)] += 1
    # certificates that pass and certificates that fail are both exercised
    assert seen[True] and seen[False], seen


def certifying_first(l, x, assume_simple):
    """Certified classify_theorem_main with the certify step before the
    pipeline, the order classify keeps for every input that cannot be
    W(1;1): x's checks, then meataxe_simple or the enumeration where it gives
    up, then the pipeline with simplicity assumed."""
    assert not assume_simple
    require_good_characteristic(l)
    require_extremal(l, l.check_vector(x))
    try:
        verdict = meataxe_simple(l)
    except CapabilityError:
        verdict = is_simple(l)
    if not verdict.simple:
        raise HypothesisError(f"the algebra is not simple ({verdict.detail})")
    return classify_theorem_main(l, x, assume_simple=True)


def sl2_on_its_natural_module():
    """sl2 ⋉ V(1) over F5 on e, f, h, v1, v2: perfect with zero centre, and
    not simple, since V(1) is an ideal."""
    return LieAlgebra(Field(5), ["e", "f", "h", "v1", "v2"], {
        (0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)],
        (0, 4): [(3, 1)], (1, 3): [(4, 1)], (2, 3): [(3, 1)], (2, 4): [(4, -1)],
    })


def precedence_cases():
    """(label, algebra, x) over F5 in dimension 5, where the certify step
    waits for witt_recognize: the perturbed witt5 tables of the tests above,
    drawn from the same seed, witt5 on three random bases, and sl2 ⋉ V(1)
    with perturbed copies of it."""
    l = builtin("witt5", 5)
    x = designated(l, None)
    rng = random.Random("witt5/5")
    for n in range(PERTURBATIONS):
        yield f"witt5 corrupt {n}", perturbed(l, rng), x
    for seed in (1, 2, 3):
        dense, old_basis = on_random_basis(l, random.Random(seed))
        yield f"witt5 basis {seed}", dense, vec_combine(l.field, x, old_basis)
    l, e = sl2_on_its_natural_module(), (1, 0, 0, 0, 0)
    yield "sl2 ⋉ V(1)", l, e
    rng = random.Random("sl2 ⋉ V(1)")
    for n in range(PERTURBATIONS):
        yield f"sl2 ⋉ V(1) corrupt {n}", perturbed(l, rng), e


def test_certified_classify_fails_as_certifying_first_does(tmp_path, capsys, monkeypatch):
    """Where the Witt isomorphism may certify simplicity, classify runs the
    certify step after the sl2 stage, and before anything else that can fail.
    Every exit code and error message is the one certifying first gives, and
    a report differs from it only in how simplicity was shown."""
    from lieext import cli

    seen = Counter()
    for label, l, x in precedence_cases():
        path = tmp_path / "case.json"
        path.write_text(to_json(l))
        argv = ["classify", str(path), "--x", ",".join(map(l.field.format, x))]
        code = run(argv)
        out, err = capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "classify_theorem_main", certifying_first)
            want_code = run(argv)
            want_out, want_err = capsys.readouterr()
        assert (code, err) == (want_code, want_err), label
        if code == EXIT_OK:
            doc, want = json.loads(out), json.loads(want_out)
            assert doc["hypotheses"].pop("simplicity")["mode"] == "certified", label
            want["hypotheses"].pop("simplicity")
            assert doc == want, label
            seen["report"] += 1
        elif "not simple" in err:
            # the pipeline alone passes, or fails with an error the certify step preempts
            seen["not simple, pipeline " + ("passes" if run(argv + ["--assume-simple"]) == EXIT_OK
                                           else "fails")] += 1
            capsys.readouterr()
        else:
            seen["pipeline error"] += 1
    assert len(seen) == 4, seen
