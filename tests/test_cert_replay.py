"""Certificate <-> model replay: the rewrite certificates speak about the
operators X and Y induced by an sl2-triple on L / <x, y, h>, so every
relation they use or conclude must vanish on the matrices of those
operators, built independently of the rewrite engine.

``prop32.cert`` is left out: its collapse chain is about an algebra that
properly contains a Witt subalgebra, and no such algebra is built here.
"""

import random
from importlib import resources

import pytest

from lieext import Field, FreeAlgebra, classify_element, complete_sl2, find_witness
from lieext.algebra import _sl, quotient_action
from lieext.certscript import _RE_ASSERT_REDUCE, _RE_LET, _RE_RULE, _logical_lines
from lieext.linalg import Matrix, _span, unit_vec

from conftest import on_random_basis


def relations(name, field):
    """The script's relators by name: lhs - rhs of every rule and of every
    ``assert reduce``, and the ``let`` bindings named R1 and R2."""
    text = resources.files("lieext").joinpath("certs").joinpath(name).read_text()
    algebra = FreeAlgebra(field, ("X", "Y"))
    bindings, out = {}, {}
    for no, line in _logical_lines(text):
        m = _RE_LET.match(line)
        if m:
            bindings[m.group(1)] = algebra.parse(m.group(2), bindings)
            if m.group(1) in ("R1", "R2"):
                out[m.group(1)] = bindings[m.group(1)]
            continue
        m = _RE_RULE.match(line) or _RE_ASSERT_REDUCE.match(line)
        if m:
            lhs, rhs = (algebra.parse(side, bindings) for side in m.groups())
            out[f"line {no}"] = lhs - rhs
    return out


def evaluate(poly, ops, field, dim):
    """poly(X, Y) as a list of rows; each word's matrix is its prefix's
    times its last letter, and every prefix is multiplied out once."""
    words = {(): Matrix.from_rows(field, [unit_vec(field, dim, i) for i in range(dim)])}

    def matrix(word):
        if word not in words:
            words[word] = matrix(word[:-1]).mul(ops[word[-1]])
        return words[word]

    total = [[field.zero] * dim for _ in range(dim)]
    for word, c in poly.terms.items():
        for row, w_row in zip(total, matrix(word).data):
            row[:] = [field.add(a, field.mul(c, b)) for a, b in zip(row, w_row)]
    return total


# sl5 over Q on a dense random basis is left out: its rational constants
# grow so large that the case alone takes about 16 s.
CASES = [(n, p, seed) for n in (3, 4, 5) for p in (5, 7, 0) for seed in (None, 3)
         if (n, p, seed) != (5, 0, 3)]


@pytest.mark.parametrize("n, p, seed", CASES)
def test_certificate_relations_vanish_on_the_quotient_action(n, p, seed):
    field = Field(p)
    l = _sl(field, n)
    x = l.basis_vector(n - 2)                   # E1n
    if seed is not None:
        l, old_basis = on_random_basis(l, random.Random(seed))
        x = old_basis[n - 2]
    st = classify_element(l, x)
    t, _ = complete_sl2(l, st, find_witness(l, st.functional))
    s = _span(field, l.dim, [t.x, t.y, t.h])
    X, Y = quotient_action(l, s, [t.x, t.y])
    assert not X.is_zero() and not Y.is_zero()
    ops, dim = {"X": X, "Y": Y}, l.dim - 3
    lemma = relations("lemma22.cert", field)
    span = relations("thm23_span.cert", field)
    assert {"R1", "R2"} <= set(lemma)
    assert len(lemma) == 2 + 2 + 3 and len(span) == 4 + 4
    for name, poly in list(lemma.items()) + list(span.items()):
        assert not any(map(any, evaluate(poly, ops, field, dim))), name
