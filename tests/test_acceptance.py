"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Arithmetic is exact everywhere, so every comparison is
equality; the only tolerances are the stated runtime budgets.

Criterion 2 is implemented exactly as stated and fails: the exhaustive scan
(confirmed by an independent operator-model oracle in test_extremal.py)
finds twenty extremal non-sandwich vectors in the Witt algebra over F5, the
nonzero vectors of the plane spanned by z^2 Dz and z^4 Dz away from the
z^4 Dz line, not four.  They form a single orbit of the z^2 Dz line under
scalars and the automorphisms exp(ad of t*z^3 Dz), so the uniqueness claim
holds only up to automorphisms, not up to scalar multiples.  The
criterion-2 paragraph of README.md ("Tests and the acceptance suite") states
why the criterion is left red.
"""

import random
import time
from contextlib import contextmanager

import pytest

from lieext import (
    HypothesisError,
    LieAlgebra,
    builtin,
    center,
    classify_element,
    classify_theorem_main,
    exhaustive_scan,
    find_witness,
    h_grading,
    is_simple,
    quadraticity_check,
    quotient_algebra,
    run_script,
    subalgebra_closure,
    to_json,
    complete_sl2,
)
from lieext.classify import VERDICT_GENERATED, VERDICT_WITT
from lieext.extremal import EXTREMAL, NOT_EXTREMAL
from lieext.linalg import kernel, rref, vec_add, vec_scale

from conftest import restrict_operator


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def designated_extremal(name, p):
    l = builtin(name, p)
    if name == "witt5":
        return l, (0, 0, l.field.of(-1), 0, 0)
    if name == "sl2":
        return l, l.basis_vector(0)
    if name == "sl3":
        return l, l.basis_vector(1)
    return l, l.basis_vector(2)


def built_triples():
    """One constructed triple per builtin simple algebra (and the simple
    quotient of the extension), via the full witness construction."""
    out = []
    for name, p in (("sl2", 5), ("sl2", 7), ("sl3", 5), ("sl3", 7),
                    ("sl4", 5), ("sl4", 7), ("witt5", 5)):
        l, x = designated_extremal(name, p)
        st = classify_element(l, x)
        w = find_witness(l, st.functional)
        triple, _ = complete_sl2(l, st, w)
        out.append((f"{name}/F{p}", l, triple))
    ext = builtin("wittext5", 5)
    q = quotient_algebra(ext, center(ext))
    x = (0, 0, q.field.of(-1), 0, 0)
    st = classify_element(q, x)
    triple, _ = complete_sl2(q, st, find_witness(q, st.functional))
    out.append(("wittext5/center quotient", q, triple))
    return out


def seeded_witnesses(l, functional, count, seed):
    f = l.field
    rng = random.Random(seed)
    i0 = next(i for i, c in enumerate(functional) if c)
    w0 = vec_scale(f, f.div(f.of(-2), functional[i0]), l.basis_vector(i0))
    out = []
    for _ in range(count):
        off = tuple(f.random(rng) for _ in range(l.dim))
        val = f.zero
        for a, b in zip(functional, off):
            val = f.add(val, f.mul(a, b))
        out.append(vec_add(f, off, vec_scale(f, f.sub(f.one, f.div(val, f.of(-2))), w0)))
    return out


def test_criterion_1_witt_pipeline():
    with criterion(1, "Witt pipeline with verified isomorphism in < 1 s"):
        l = builtin("witt5", 5)
        f = l.field
        start = time.perf_counter()
        report = classify_theorem_main(l, (0, 0, f.of(-1), 0, 0))
        elapsed = time.perf_counter() - start
        assert report.verdict == VERDICT_WITT
        assert report.triple.y == l.basis_vector(0)            # Dz
        assert report.triple.h == (0, 2, 0, 0, 0)              # 2 z Dz
        assert report.grading.dims() == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}
        assert report.iso.target == "W"
        assert len(report.iso.rules) == 16
        assert report.iso.span_equals_algebra
        assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"


def test_criterion_2_uniqueness_at_desk_scale():
    with criterion(2, "exhaustive scan finds the unique extremal class of witt5"):
        l = builtin("witt5", 5)
        start = time.perf_counter()
        scan = exhaustive_scan(l)
        elapsed = time.perf_counter() - start
        total = sum(scan.counts.values())
        assert total == 3124
        assert elapsed < 5.0, f"scan took {elapsed:.2f}s"
        count = scan.counts[EXTREMAL]
        multiples = {vec_scale(l.field, l.field.of(c), l.basis_vector(2))
                     for c in range(1, 5)}
        assert count == 4 and set(scan.extremal) == multiples, (
            f"the scan found {count} extremal non-sandwich vectors, not 4: the "
            "extremal locus of the Witt algebra is the plane spanned by z^2 Dz "
            "and z^4 Dz minus the sandwich line, one orbit of the z^2 Dz line "
            "under exp(ad t*z^3 Dz) and scalars; uniqueness up to scalar "
            "multiples alone does not hold (confirmed by the independent "
            "operator-model oracle in test_extremal.py)")


def test_criterion_3_regular_pipeline():
    with criterion(3, "regular pipeline on sl3 over F7 and F5, all certificates, < 1 s each"):
        for p in (7, 5):
            l = builtin("sl3", p)
            f = l.field
            x = l.basis_vector(1)
            start = time.perf_counter()
            report = classify_theorem_main(l, x)
            elapsed = time.perf_counter() - start
            assert report.verdict == VERDICT_GENERATED
            assert report.closure_dim == 8
            assert subalgebra_closure(l, report.generators).dim == 8
            two = f.of(2)
            for cert in report.certificates:
                # re-verify the headline bracket identities independently
                yu = l.bracket(report.triple.y, cert.u)
                minus_h_z = tuple(f.neg(f.add(a, b))
                                  for a, b in zip(report.triple.h, cert.z))
                assert yu == minus_h_z
                assert l.bracket(yu, report.triple.y) == vec_scale(f, two, report.triple.y)
                assert l.bracket(yu, cert.u) == vec_scale(f, f.neg(two), cert.u)
                assert classify_element(l, cert.u).kind == EXTREMAL
                assert subalgebra_closure(l, [x, report.triple.y, cert.u]).contains(cert.z)
                assert cert.span_dim <= 8
                assert len(cert.relations) == 20
            assert elapsed < 1.0, f"sl3/F{p} took {elapsed:.2f}s"


def test_criterion_4_completion_property_suite():
    """The t(t-1)(t-2) check on the centralizer C of x is the proof
    obligation of complete_sl2's closed form: where ad_h satisfies it on C,
    (12 - 5t + t^2)/24 in t = ad_h is the inverse of ad_h + 2 there."""
    with criterion(4, "50 seeded witnesses per simple builtin yield verified triples"):
        for name, p in (("sl2", 5), ("sl2", 7), ("sl3", 5), ("sl3", 7),
                        ("sl4", 5), ("sl4", 7), ("witt5", 5)):
            l, x = designated_extremal(name, p)
            f = l.field
            st = classify_element(l, x)
            c = kernel(l.ad(x))
            for w in seeded_witnesses(l, st.functional, 50, seed=1729):
                triple, _ = complete_sl2(l, st, w)  # verifies the pair relations exactly
                h_c = restrict_operator(l.ad(triple.h), c)
                assert rref(h_c.add_scalar_diag(f.of(2)))[1] == c.dim
                prod = h_c.mul(h_c.add_scalar_diag(f.of(-1))).mul(h_c.add_scalar_diag(f.of(-2)))
                assert prod.is_zero()


def test_criterion_5_quadratic_action_suite():
    with criterion(5, "quadratic action on the quotient for every constructed triple"):
        for label, l, triple in built_triples():
            assert quadraticity_check(l, triple), label


def test_criterion_6_grading_suite():
    with criterion(6, "five-component grading checks for every constructed triple"):
        for label, l, triple in built_triples():
            f = l.field
            g = h_grading(l, triple)  # verifies direct sum and extreme lines
            assert sum(g.components[i].dim for i in (-2, -1, 0, 1, 2)) == l.dim, label
            adh = l.ad(triple.h)
            poly = adh
            for s in (-1, 1, -2, 2):
                poly = poly.mul(adh.add_scalar_diag(f.of(s)))
            assert poly.is_zero(), label
            assert kernel(adh.mul(adh)) == kernel(adh), label
            assert g.components[-2].dim == 1 and g.components[-2].contains(triple.x)
            assert g.components[2].dim == 1 and g.components[2].contains(triple.y)


def test_criterion_7_certificate_corpus():
    with criterion(7, "the three shipped rewrite certificates verify in < 1 s"):
        from importlib import resources

        start = time.perf_counter()
        results = {}
        for name in ("lemma22.cert", "prop32.cert", "thm23_span.cert"):
            text = resources.files("lieext").joinpath("certs").joinpath(name).read_text()
            results[name] = run_script(text)
        elapsed = time.perf_counter() - start
        assert all(r.passed for r in results.values())
        assert results["lemma22.cert"].assertions[-1].value == "12/1*Y^2"
        prop32 = [a.value for a in results["prop32.cert"].assertions]
        assert prop32[2:] == ["X", "Y", "V"]
        span = results["thm23_span.cert"].assertions
        assert span[0].value == "0"                      # the cubic identity
        assert span[-1].kind == "span"
        assert span[-1].value == "1 X Y X*Y Y*X"
        assert elapsed < 1.0, f"certificates took {elapsed:.2f}s"


def test_criterion_8_negative_controls():
    with criterion(8, "sandwich witness refusal, non-extremal detection, Jacobi catch"):
        h = builtin("heisenberg", 5)
        st = classify_element(h, h.basis_vector(0))
        with pytest.raises(HypothesisError):
            find_witness(h, st.functional)
        sl2 = builtin("sl2", 5)
        assert classify_element(sl2, sl2.basis_vector(2)).kind == NOT_EXTREMAL
        w = builtin("witt5", 5)
        table = dict(w.table)
        table[(0, 1)] = [(0, 2)]
        report = LieAlgebra(w.field, w.names, table).validate()
        assert not report.ok and len(report.violations) >= 1


def test_criterion_9_structural():
    with criterion(9, "extension center, non-simplicity, and byte-equal central quotient"):
        ext = builtin("wittext5", 5)
        c = center(ext)
        assert c.dim == 1
        assert c.basis[0] == ext.basis_vector(5)         # exactly the z^6 Dz line
        verdict = is_simple(ext)
        assert not verdict.simple
        assert to_json(quotient_algebra(ext, c)) == to_json(builtin("witt5", 5))
