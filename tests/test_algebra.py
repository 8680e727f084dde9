import json
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from lieext import (
    CapabilityError,
    Field,
    InvarianceError,
    LieAlgebra,
    ParseError,
    ShapeError,
    Subspace,
    builtin,
    center,
    derived,
    from_json,
    is_simple,
    meataxe_simple,
    parse_coords,
    quotient_action,
    quotient_algebra,
    subalgebra_closure,
    to_json,
)
from lieext.algebra import _basis_actions
from lieext.linalg import GrowingSpan, Matrix, kernel, vec_add, vec_is_zero, vec_sub

from conftest import over_quadratic_extension, on_random_basis, rand_vec

ALL_BUILTINS = [
    ("sl2", 5), ("sl2", 7), ("sl2", 0),
    ("sl3", 5), ("sl3", 7), ("sl3", 0),
    ("sl4", 5), ("sl4", 7),
    ("witt5", 5), ("wittext5", 5),
    ("heisenberg", 5), ("heisenberg", 0),
]


# -- independent oracles ----------------------------------------------------

def witt_oracle_terms(i, j, extended):
    """Bracket of z^i Dz and z^j Dz straight from the derivation formula."""
    allowed = {0, 1, 2, 3, 4} | ({6} if extended else set())
    exps = sorted(allowed)
    k = i + j - 1
    if k in allowed and (j - i) % 5 != 0:
        return ((exps.index(k), (j - i) % 5),)
    return ()


def sl_matrix_oracle(n, p):
    """Structure constants recomputed from n x n matrix commutators."""
    field = Field(p)
    offdiag = [(i, j) for i in range(n) for j in range(n) if i < j]
    offdiag += [(i, j) for i in range(n) for j in range(n) if i > j]

    def basis_matrix(idx):
        m = [[0] * n for _ in range(n)]
        if idx < len(offdiag):
            a, b = offdiag[idx]
            m[a][b] = 1
        else:
            k = idx - len(offdiag)
            m[k][k], m[k + 1][k + 1] = 1, -1
        return m

    dim = len(offdiag) + n - 1
    mats = [basis_matrix(i) for i in range(dim)]

    def commute(x, y):
        return [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]

    def expand(m):
        coords = [0] * dim
        for a, (i, j) in enumerate(offdiag):
            coords[a] = m[i][j]
        run = 0
        for k in range(n - 1):
            run += m[k][k]
            coords[len(offdiag) + k] = run
        return tuple(field.of(c) for c in coords)

    return mats, commute, expand, field


# -- builtins ---------------------------------------------------------------

@pytest.mark.parametrize("name,p", ALL_BUILTINS)
def test_builtins_satisfy_jacobi(name, p):
    report = builtin(name, p).validate()
    assert report.ok, report.violations


def test_builtin_rejects_bad_characteristics():
    with pytest.raises(CapabilityError):
        builtin("witt5", 7)
    with pytest.raises(CapabilityError):
        builtin("sl2", 3)
    with pytest.raises(CapabilityError):
        builtin("nosuch", 5)


def dense(l, terms):
    """The vector of ``l`` with the given sparse ``(k, coeff)`` terms."""
    out = [l.field.zero] * l.dim
    for k, c in terms:
        out[k] = c
    return tuple(out)


def test_witt5_table_against_derivation_oracle(witt5, wittext5):
    for l, extended in ((witt5, False), (wittext5, True)):
        exps = [0, 1, 2, 3, 4] + ([6] if extended else [])
        d = l.basis_vector
        for a in range(l.dim):
            for b in range(l.dim):
                expected = dense(l, witt_oracle_terms(exps[a], exps[b], extended))
                assert l.bracket(d(a), d(b)) == expected


def test_witt5_spot_values(witt5, wittext5):
    d = witt5.basis_vector
    assert witt5.bracket(d(0), d(1)) == d(0)
    assert witt5.bracket(d(2), d(3)) == d(4)
    assert vec_is_zero(witt5.bracket(d(2), d(4)))
    assert vec_is_zero(witt5.bracket(d(3), d(4)))
    e = wittext5.basis_vector
    assert wittext5.bracket(e(3), e(4)) == e(5)  # the central element z^6 Dz


def test_witt_tables_differ_only_at_top_pair(witt5, wittext5):
    d, e = witt5.basis_vector, wittext5.basis_vector
    for a in range(5):
        for b in range(a + 1, 5):
            ours = witt5.bracket(d(a), d(b))
            theirs = wittext5.bracket(e(a), e(b))
            if (a, b) == (3, 4):
                assert vec_is_zero(ours) and theirs == e(5)
            else:
                assert ours + (0,) == theirs


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 7) for p in (0, 5, 7, 11)] + [(7, 5)])
def test_sl_table_against_matrix_commutator_oracle(n, p):
    # _sl reads each bracket off the matrix-unit rule; the oracle multiplies
    # the n x n matrices out.
    from lieext.algebra import _sl

    l = _sl(Field(p), n)
    mats, commute, expand, _ = sl_matrix_oracle(n, p)
    for a in range(l.dim):
        for b in range(l.dim):
            expected = expand(commute(mats[a], mats[b]))
            assert l.bracket(l.basis_vector(a), l.basis_vector(b)) == expected
    if n == 2:
        assert builtin("sl2", p).table == l.table


def test_sl2_defining_relations():
    l = builtin("sl2", 5)
    e, f, h = l.basis_vector(0), l.basis_vector(1), l.basis_vector(2)
    assert l.bracket(h, e) == tuple(2 * c % 5 for c in e)
    assert l.bracket(h, f) == tuple(-2 * c % 5 for c in f)
    assert l.bracket(e, f) == h


# -- bracket / ad -----------------------------------------------------------

def test_bracket_is_alternating_and_antisymmetric(rng):
    for name, p in (("sl3", 7), ("witt5", 5), ("heisenberg", 5)):
        l = builtin(name, p)
        for _ in range(20):
            u = rand_vec(l.field, l.dim, rng)
            v = rand_vec(l.field, l.dim, rng)
            assert vec_is_zero(l.bracket(u, u))
            neg = tuple(l.field.neg(c) for c in l.bracket(v, u))
            assert l.bracket(u, v) == neg


def table_bracket(l, u, v):
    """[u, v] from the i < j table alone, antisymmetry applied here."""
    f = l.field
    out = [f.zero] * l.dim
    for (i, j), terms in l.table.items():
        s = f.sub(f.mul(u[i], v[j]), f.mul(u[j], v[i]))
        for k, c in terms:
            out[k] = f.add(out[k], f.mul(s, c))
    return tuple(out)


def test_bracket_and_ad_against_table_oracle(rng):
    for name, p in (("sl3", 7), ("witt5", 5), ("wittext5", 5), ("sl2", 0)):
        l, _ = on_random_basis(builtin(name, p), rng)
        for _ in range(5):
            u = rand_vec(l.field, l.dim, rng)
            v = rand_vec(l.field, l.dim, rng)
            assert l.bracket(u, v) == table_bracket(l, u, v)
            m = l.ad(u)
            for j in range(l.dim):
                column = tuple(row[j] for row in m.data)
                assert column == table_bracket(l, u, l.basis_vector(j))


def test_ad_diagonal_on_witt5(witt5):
    h = tuple(witt5.field.of(c) for c in (0, 2, 0, 0, 0))  # 2z Dz
    m = witt5.ad(h)
    diag = tuple(m.data[i][i] for i in range(5))
    assert diag == (3, 0, 2, 4, 1)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert m.data[i][j] == 0


def test_ad_of_zero_and_linearity(witt5, rng):
    assert witt5.ad(witt5.zero()).is_zero()
    u = rand_vec(witt5.field, 5, rng)
    v = rand_vec(witt5.field, 5, rng)
    f = witt5.field
    s = vec_add(f, u, v)
    assert witt5.ad(s).data == tuple(
        vec_add(f, a, b) for a, b in zip(witt5.ad(u).data, witt5.ad(v).data))


def test_ad_on_sl2():
    l = builtin("sl2", 7)
    e, f, h = l.basis_vector(0), l.basis_vector(1), l.basis_vector(2)
    ad_e = l.ad(e)
    assert ad_e.apply(f) == h
    assert ad_e.apply(h) == tuple(l.field.of(-2) * c % 7 for c in e)


def test_ad_is_bracket_homomorphism(rng):
    # ad([u, v]) = ad(u) ad(v) - ad(v) ad(u), the Jacobi identity in matrix form
    for name, p in (("sl3", 5), ("witt5", 5), ("sl2", 0)):
        l = builtin(name, p)
        for _ in range(10):
            u = rand_vec(l.field, l.dim, rng)
            v = rand_vec(l.field, l.dim, rng)
            lhs = l.ad(l.bracket(u, v))
            assert lhs == _commutator(l.ad(u), l.ad(v))


def _commutator(a, b):
    """ab - ba, entry by entry."""
    f = a.field
    ab, ba = a.mul(b), b.mul(a)
    return Matrix(f, a.rows, a.cols, tuple(vec_sub(f, r, s) for r, s in zip(ab.data, ba.data)))


def test_bracket_shape_errors(witt5):
    with pytest.raises(ShapeError):
        witt5.bracket((1, 2), witt5.zero())


def test_ad_checks_the_length_only(witt5, rng, monkeypatch):
    with pytest.raises(ShapeError, match="vector of length 2 in a 5-dimensional algebra"):
        witt5.ad((1, 2))
    u = rand_vec(witt5.field, 5, rng)
    calls = []
    of = Field.of
    monkeypatch.setattr(Field, "of", lambda self, c: calls.append(c) or of(self, c))
    m = witt5.ad(u)
    assert calls == []
    assert [m.apply(witt5.basis_vector(j)) for j in range(5)] == \
        [witt5.bracket(u, witt5.basis_vector(j)) for j in range(5)]


def test_ad_keeps_its_last_two_dim_matrices(witt5, rng):
    f, n = witt5.field, witt5.dim
    x = rand_vec(f, n, rng)
    first = witt5.ad(x)
    assert witt5.ad(list(x)) is first
    others = []
    while len(others) < 2 * n:
        v = rand_vec(f, n, rng)
        if v != x and v not in others:
            others.append(v)
    for v in others[:-1]:
        witt5.ad(v)
    assert witt5.ad(x) is first
    witt5.ad(others[-1])                # the oldest, x, is dropped
    again = witt5.ad(x)
    assert again is not first and again == first


# -- validation -------------------------------------------------------------

def test_mutated_witt5_fails_jacobi(witt5):
    table = dict(witt5.table)
    table[(0, 1)] = [(0, 2)]  # [Dz, z*Dz] set to 2*Dz
    broken = LieAlgebra(witt5.field, witt5.names, table)
    report = broken.validate()
    assert not report.ok
    assert len(report.violations) >= 1
    assert all(i < j < k for i, j, k in report.violations)


def jacobi_violations(l):
    """The triples i < j < k with a nonzero Jacobi sum, from the i < j table
    alone, antisymmetry applied here: [[b_a, b_b], b_c] = sum_m c_ab^m [b_m, b_c]."""
    f = l.field

    def basis_bracket(a, b):
        terms = l.table.get((a, b)) if a < b else l.table.get((b, a))
        out = [f.zero] * l.dim
        for k, c in terms or ():
            out[k] = c if a < b else f.neg(c)
        return out

    br = {(a, b): basis_bracket(a, b) for a in range(l.dim) for b in range(l.dim)}
    violations = []
    for i, j, k in combinations(range(l.dim), 3):
        acc = [f.zero] * l.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, s in enumerate(br[(a, b)]):
                if s:
                    acc = vec_add(f, acc, [f.mul(s, x) for x in br[(m, c)]])
        if not vec_is_zero(acc):
            violations.append((i, j, k))
    return tuple(violations)


def test_validate_against_jacobi_oracle(rng):
    # seeded single-coefficient corruptions: validate must name exactly the
    # triples the oracle does
    broken = 0
    for l in (builtin("sl3", 7), builtin("witt5", 5), on_random_basis(builtin("sl4", 5), rng)[0]):
        f = l.field
        assert l.validate().violations == jacobi_violations(l) == ()
        for _ in range(4):
            i, j = sorted(rng.sample(range(l.dim), 2))
            k = rng.randrange(l.dim)
            terms = dict(l.table.get((i, j), ()))
            terms[k] = f.add(terms.get(k, f.zero), rng.randrange(1, f.p))
            table = dict(l.table)
            table[(i, j)] = list(terms.items())
            corrupt = LieAlgebra(f, l.names, table)
            expected = jacobi_violations(corrupt)
            assert corrupt.validate().violations == expected
            broken += bool(expected)
    assert broken >= 10


# -- closures ---------------------------------------------------------------

def test_subalgebra_closure_examples(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    y = witt5.basis_vector(0)
    s = subalgebra_closure(witt5, [x, y])
    assert s.dim == 3
    v = (0, 0, 0, 0, f.of(2))
    assert subalgebra_closure(witt5, [x, y, v]).dim == 5
    assert subalgebra_closure(witt5, [witt5.zero()]).dim == 0


def _pairwise_closure(l, gens):
    """Subalgebra closure by a pairwise-bracket worklist: every vector added
    is bracketed against all earlier ones once."""
    pool, span = [], Subspace.span(l.field, l.dim, [])
    for v in gens:
        if not span.contains(v):
            span = Subspace.span(l.field, l.dim, span.basis + (v,))
            pool.append(v)
    idx = 0
    while idx < len(pool):
        for v in pool[: idx + 1]:
            w = l.bracket(pool[idx], v)
            if not span.contains(w):
                span = Subspace.span(l.field, l.dim, span.basis + (w,))
                pool.append(w)
        idx += 1
    return span


@pytest.mark.parametrize("name, p", [
    ("sl3", 7), ("sl4", 5), ("witt5", 5), ("wittext5", 5), ("heisenberg", 5),
])
def test_subalgebra_closure_matches_pairwise_brackets(name, p, rng):
    l = builtin(name, p)
    for size in (1, 2, 3, 4):
        for _ in range(3):
            gens = [rand_vec(l.field, l.dim, rng) for _ in range(size)]
            if size > 1 and rng.random() < 0.5:  # sparse generators give small subalgebras
                gens = [l.basis_vector(rng.randrange(l.dim)) for _ in range(size)]
            assert subalgebra_closure(l, gens) == _pairwise_closure(l, gens)


def test_subalgebra_closure_known_values():
    sl3 = builtin("sl3", 7)
    e12, e21 = (sl3.basis_vector(sl3.names.index(n)) for n in ("E12", "E21"))
    assert subalgebra_closure(sl3, [e12, e21]).dim == 3
    sl2 = builtin("sl2", 5)
    assert subalgebra_closure(sl2, [sl2.basis_vector(0), sl2.basis_vector(1)]).dim == 3


def test_closure_properties(rng):
    l = builtin("sl3", 7)
    for _ in range(10):
        gens = [rand_vec(l.field, l.dim, rng) for _ in range(2)]
        s = subalgebra_closure(l, gens)
        # monotone, idempotent, closed under the bracket
        assert all(s.contains(g) for g in gens)
        assert subalgebra_closure(l, list(s.basis)) == s
        for u in s.basis:
            for v in s.basis:
                assert s.contains(l.bracket(u, v))


def ideal_closure(l, gens):
    """The ideal generated by ``gens``, through the closure that
    meataxe_simple and is_simple run: under every ad(b_i), read from the
    stored constants."""
    return GrowingSpan(l.field, l.dim)._close(_basis_actions(l), gens).to_subspace()


def test_ideal_closure_examples(witt5, wittext5):
    top = wittext5.basis_vector(5)
    assert ideal_closure(wittext5, [top]).dim == 1
    assert ideal_closure(witt5, []).dim == 0
    # simplicity seen through ideals: every projective representative generates
    f = witt5.field
    from lieext.algebra import _projective_representatives

    for v in _projective_representatives(f, 5):
        assert ideal_closure(witt5, [v]).dim == 5


# -- the module actions read from the stored constants ------------------------

ACTION_ALGEBRAS = sorted(
    [(name, p, seed) for p in (5, 7, 11, 0) for name in ("sl2", "sl3", "sl4", "heisenberg")
     for seed in (None, 1) if not (name == "sl4" and seed)]
    + [(name, 5, seed) for name in ("witt5", "wittext5") for seed in (None, 1)],
    key=repr)


@cache
def action_algebra(name, p, seed):
    l = builtin(name, p)
    return l if seed is None else on_random_basis(l, random.Random(seed))[0]


def action_scalars(p):
    if p:
        return st.integers(0, p - 1)
    return st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


@st.composite
def action_cases(draw):
    """An algebra, a basis index, and a vector, often sparse, sometimes zero."""
    name, p, seed = draw(st.sampled_from(ACTION_ALGEBRAS))
    l = action_algebra(name, p, seed)
    zero = l.field.zero
    coords = st.one_of(st.just(zero), action_scalars(p))
    v = draw(st.one_of(st.just(l.zero()),
                       st.lists(coords, min_size=l.dim, max_size=l.dim).map(tuple)))
    return (name, p, seed), draw(st.integers(0, l.dim - 1)), v


@settings(max_examples=300, deadline=None)
@given(action_cases())
@example((("heisenberg", 5, None), 2, (1, 2, 3)))   # [c, L] = 0: _rows[2] is empty
@example((("heisenberg", 0, None), 2, (Fraction(1), Fraction(-2), Fraction(3))))
@example((("sl3", 7, 1), 0, (0,) * 8))
def test_basis_actions_match_the_adjoint_matrices(case):
    # ad(b_i) v = sum_j v_j [b_i, b_j] and ((ad b_i)^T phi)_j = sum_k c_ij^k phi_k,
    # read from the stored constants, against the dense ad(b_i) and its transpose
    key, i, v = case
    l = action_algebra(*key)
    m = l.ad(l.basis_vector(i))
    assert _basis_actions(l)[i](v) == m.apply(v)
    assert _basis_actions(l, dual=True)[i](v) == m.transpose().apply(v)


def test_ideal_closure_is_an_ideal(rng):
    l = builtin("sl4", 5)
    for _ in range(5):
        s = ideal_closure(l, [rand_vec(l.field, l.dim, rng)])
        for i in range(l.dim):
            for row in s.basis:
                assert s.contains(l.bracket(l.basis_vector(i), row))


# -- center / derived / simplicity -------------------------------------------

def test_center_and_derived(witt5, wittext5):
    c = center(wittext5)
    assert c.dim == 1 and c.basis[0] == wittext5.basis_vector(5)
    assert center(witt5).dim == 0
    l = builtin("sl2", 5)
    assert derived(l) == Subspace.span(l.field, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    h = builtin("heisenberg", 5)
    assert derived(h).dim == 1


def test_simplicity_builds_each_basis_adjoint_once(monkeypatch):
    # the centre and the closures read the stored constants, and the search
    # for a singular operator reads each E_ij's nilpotent pattern off its
    # stored row, so the only adjoint built is H1's, whose root ends the
    # search (the E_ij and H1 were built before, and all n^2 - 1 basis
    # adjoints before that); is_simple builds none
    from lieext.algebra import _sl

    calls = []
    ad = LieAlgebra.ad
    monkeypatch.setattr(LieAlgebra, "ad", lambda self, x: calls.append(x) or ad(self, x))
    for n, p in ((3, 7), (4, 5), (5, 7)):
        l = _sl(Field(p), n)
        calls.clear()
        assert meataxe_simple(l).simple
        assert calls == [l.basis_vector(l.names.index("H1"))]
    calls.clear()
    assert is_simple(builtin("sl2", 5)).simple
    assert calls == []


def test_is_simple_certified(witt5, wittext5):
    assert is_simple(witt5).simple
    v = is_simple(wittext5)
    assert not v.simple
    assert v.witness_ideal is not None and v.witness_ideal.dim == 1
    assert not is_simple(builtin("heisenberg", 5)).simple


def test_is_simple_probabilistic_over_rationals():
    # Over Q there is no exact certificate and no probabilistic fallback any
    # more: is_simple refuses, and classify needs assume_simple.
    with pytest.raises(CapabilityError, match="finite field"):
        is_simple(builtin("sl3", 0))


def test_is_simple_size_cap():
    with pytest.raises(CapabilityError,
                       match=r"certified simplicity limited to p\^n <= 10000000; rerun with assume_simple$"):
        is_simple(builtin("sl4", 7))  # 7^15 points is far too many


def test_meataxe_agrees_with_exhaustive_certification(witt5, wittext5, rng):
    def rebased(l):
        return on_random_basis(l, rng)[0]

    sl2 = builtin("sl2", 5)
    for l in (witt5, sl2, builtin("sl2", 7), rebased(witt5), rebased(sl2)):
        assert meataxe_simple(l).simple == is_simple(l).simple is True
    for l in (wittext5, builtin("heisenberg", 5), rebased(wittext5)):
        v = meataxe_simple(l)
        assert not v.simple and not is_simple(l).simple
        _assert_proper_ideal(l, v.witness_ideal)


@pytest.mark.parametrize("n, p", [(4, 5), (4, 7), (5, 7), (6, 5)])
@pytest.mark.parametrize("basis", ["standard", "random"])
def test_shifted_meataxe_reaches_nullity_one_on_sl_n(n, p, basis):
    # ker ad(x) holds a Cartan subalgebra, so unshifted kernels have nullity
    # at least n - 1; ad(x) - lambda*1 at a simple eigenvalue has nullity 1.
    from lieext.algebra import _sl

    l = _sl(Field(p), n)
    if basis == "random":
        l = on_random_basis(l, random.Random(100 * n + p))[0]
    v = meataxe_simple(l)
    assert v.simple and v.witness_ideal is None
    assert v.detail == "kernel lines of a nullity-1 operator generate the module and its dual"


def _search_kernels(l, monkeypatch):
    """meataxe_simple's verdict on l and the square matrices whose kernels it
    computes past the centre and derived-algebra checks, in order."""
    from lieext import algebra

    square = []
    structural = algebra._structural_verdict

    def after_prelude(l):
        verdict = structural(l)
        square.clear()
        return verdict

    def recording_kernel(m):
        if m.rows == m.cols:
            square.append(m)
        return kernel(m)

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_structural_verdict", after_prelude)
        patch.setattr(algebra, "kernel", recording_kernel)
        return algebra.meataxe_simple(l), square


@pytest.mark.parametrize("n, p", [(4, 5), (5, 7)])
def test_shift_search_computes_one_kernel(n, p, monkeypatch):
    # past the centre and derived algebra, the square kernels are the
    # search's and that of its transpose: a root of exactly one Hessenberg
    # block has nullity 1, so no other shift is tried (a search trying every
    # root in turn takes 15 kernels on sl4/F5 and 23 on sl5/F7)
    from lieext.algebra import _sl

    v, square = _search_kernels(_sl(Field(p), n), monkeypatch)
    assert v.detail == "kernel lines of a nullity-1 operator generate the module and its dual"
    assert len(square) == 2 and square[1] == square[0].transpose()


@pytest.mark.parametrize("n, p", [(3, 5), (4, 5), (5, 7)])
def test_shift_search_skips_the_characteristic_polynomial_of_nilpotent_candidates(
        n, p, monkeypatch):
    # the E_ij come first in the basis; the stored row of each shows two
    # zero columns or more of ad(E_ij) and an acyclic pattern, so only H1,
    # which ends the search, needs its characteristic polynomial (13 were
    # computed on sl4/F5 before)
    from lieext import algebra
    from lieext.algebra import _sl
    from lieext.linalg import _nilpotent_pattern

    l = _sl(Field(p), n)
    computed = []
    charpoly = algebra._charpoly
    monkeypatch.setattr(algebra, "_charpoly", lambda m: computed.append(m) or charpoly(m))
    assert meataxe_simple(l).simple
    ads = [l.ad(l.basis_vector(i)) for i in range(l.dim)]
    walked = range(ads.index(computed[-1]) + 1)
    assert computed == [ads[i] for i in walked if not _nilpotent_pattern(l.dim, l._rows[i])]
    assert computed == [l.ad(l.basis_vector(l.names.index("H1")))]


@st.composite
def _sparse_tables(draw):
    """A structure tensor over GF(2), GF(5), GF(7) or QQ, not necessarily
    a Lie algebra, with a few brackets: each [b_i, b_j] a multiple of one
    b_k with k past i and j (so every ad(b_i) is nilpotent), with k
    anywhere, or a sum of two such terms."""
    p = draw(st.sampled_from((2, 5, 7, 0)))
    n = draw(st.integers(2, 7))
    coeff = st.integers(1, p - 1) if p else st.integers(-4, 4).filter(bool)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    graded = draw(st.booleans())
    table = {}
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)):
        targets = range(j + 1, n) if graded else range(n)
        if targets:
            ks = draw(st.lists(st.sampled_from(targets), min_size=1, max_size=2, unique=True))
            table[(i, j)] = [(k, draw(coeff)) for k in ks]
    return LieAlgebra(Field(p), [f"b{i}" for i in range(n)], table)


@settings(max_examples=200, deadline=None)
@given(_sparse_tables())
def test_stored_row_pattern_fires_only_where_chi_is_x_to_the_n(l):
    # meataxe_simple skips ad(b_i) and its characteristic polynomial where
    # the pattern read off the stored row of b_i fires: chi must then be
    # x^n and 0 a root of two Hessenberg blocks or more, so that the search
    # would take no shift of b_i; the test agrees with the dense matrix's
    # zero pattern, nilpotent as a 0/1 matrix with two zero columns or more
    from lieext.linalg import _charpoly, _nilpotent_pattern

    f, n = l.field, l.dim
    for i in range(n):
        a = l.ad(l.basis_vector(i))
        step = [{k for k in range(n) if a.data[k][j]} for j in range(n)]
        reach = step
        for _ in range(n - 1):
            reach = [set().union(*(step[k] for k in targets)) for targets in reach]
        fires = _nilpotent_pattern(n, l._rows[i])
        assert fires == (sum(not s for s in step) >= 2 and not any(reach))
        if fires:
            chi, blocks = _charpoly(a)
            assert chi == [f.zero] * n + [f.one]
            assert sum(not b[0] for b in blocks) >= 2


def test_shift_search_on_large_fields():
    # the shifts are the F_p-roots of each candidate's characteristic
    # polynomial, so p never has to be enumerated
    for p in (1009, 2**31 - 1):
        assert meataxe_simple(builtin("sl3", p)).detail == \
            "kernel lines of a nullity-1 operator generate the module and its dual"


@pytest.mark.parametrize("n, p, d", [(2, 3, 2), (2, 5, 2), (3, 7, 3)])
def test_meataxe_over_a_quadratic_extension(n, p, d, monkeypatch):
    # sl_n(F_(p^2)) over F_p is simple but no kernel has odd nullity; the
    # search computes kernels only at eigenvalues, so none of them is zero
    from lieext import algebra
    from lieext.algebra import _sl

    l = over_quadratic_extension(_sl(Field(p), n), d)
    nullities = []

    def recording_kernel(m):  # the search's kernels are the square ones
        ker = kernel(m)
        if m.rows == m.cols:
            nullities.append(ker.dim)
        return ker

    monkeypatch.setattr(algebra, "kernel", recording_kernel)
    v = meataxe_simple(l)
    assert v.simple and v.detail == \
        "kernel lines of a nullity-2 operator generate the module and its dual"
    assert nullities and 0 not in nullities
    # a nullity-2 kernel has p + 1 lines, so with a budget of p the per-root
    # fallback passes over every kernel and the certificate is refused
    monkeypatch.setattr(algebra, "MEATAXE_LINE_BUDGET", p)
    with pytest.raises(CapabilityError, match="no singular operator"):
        meataxe_simple(l)
    if p ** l.dim <= 10**5:
        assert is_simple(l).simple


def test_meataxe_on_larger_algebras():
    for name, p in (("sl3", 5), ("sl3", 7), ("sl4", 5), ("sl4", 7)):
        v = meataxe_simple(builtin(name, p))
        assert v.simple
    with pytest.raises(CapabilityError):
        meataxe_simple(builtin("sl3", 0))


def test_meataxe_witness_is_a_proper_ideal(wittext5):
    _assert_proper_ideal(wittext5, meataxe_simple(wittext5).witness_ideal)


def _sl2_plus_sl2(p):
    sl2 = builtin("sl2", p).table
    table = dict(sl2)
    table.update({(i + 3, j + 3): [(k + 3, c) for k, c in terms]
                  for (i, j), terms in sl2.items()})
    return LieAlgebra(Field(p), ("e", "f", "h", "e'", "f'", "h'"), table)


def _sl2_on_natural_module(p):
    # sl2 acting on F^2 = <v1, v2> by e v2 = v1, f v1 = v2, h v1 = v1, h v2 = -v2.
    table = dict(builtin("sl2", p).table)
    table.update({(0, 4): [(3, 1)], (1, 3): [(4, 1)], (2, 3): [(3, 1)], (2, 4): [(4, -1)]})
    return LieAlgebra(Field(p), ("e", "f", "h", "v1", "v2"), table)


def _assert_proper_ideal(l, w):
    assert 0 < w.dim < l.dim
    for i in range(l.dim):
        for row in w.basis:
            assert w.contains(l.bracket(l.basis_vector(i), row))


@pytest.mark.parametrize("make, p, ideal_dim", [
    (_sl2_plus_sl2, 5, 3),              # a kernel line lies in a summand
    (_sl2_on_natural_module, 5, 2),     # only a line of ker t^T finds the module
    (_sl2_on_natural_module, 7, 2),
])
def test_meataxe_finds_ideals_past_the_prelude(make, p, ideal_dim):
    l = make(p)
    assert l.validate().ok
    assert center(l).dim == 0 and derived(l).dim == l.dim
    v = meataxe_simple(l)
    assert not v.simple and v.detail == "proper ideal found"
    assert v.witness_ideal.dim == ideal_dim
    _assert_proper_ideal(l, v.witness_ideal)
    reference = is_simple(l)
    assert not reference.simple
    _assert_proper_ideal(l, reference.witness_ideal)


def _direct_sum(p, *parts):
    table, names = {}, []
    for name in parts:
        summand = builtin(name, p)
        shift = len(names)
        table.update({(i + shift, j + shift): [(k + shift, c) for k, c in terms]
                      for (i, j), terms in summand.table.items()})
        names += [f"{b}{shift}" for b in summand.names]
    return LieAlgebra(Field(p), names, table)


def _per_root_operator(l):
    # the shift search as it was before the Hessenberg blocks: every root of
    # every candidate in walk order, a kernel each, the first of nullity 1
    from lieext import algebra
    from lieext.linalg import _charpoly, _roots

    f = l.field
    rng = random.Random(algebra.SIMPLICITY_SEED)
    samples = [tuple(f.random(rng) for _ in range(l.dim)) for _ in range(24)]
    thetas = [l.ad(l.basis_vector(i)) for i in range(l.dim)]
    thetas += [l.ad(x) for x in samples if not vec_is_zero(x)]
    for theta in thetas:
        for lam in _roots(f, _charpoly(theta)[0]):
            t = theta.add_scalar_diag(f.neg(lam))
            if kernel(t).dim == 1:
                return t


@pytest.mark.parametrize("p, parts, basis", [
    (5, ("sl2", "sl2"), "standard"),
    (7, ("sl2", "sl2"), "random"),
    (5, ("sl3", "sl3"), "random"),
    (7, ("sl3", "sl2"), "standard"),
    (7, ("sl2", "sl3"), "random"),
    (5, ("witt5", "sl2"), "standard"),
])
def test_meataxe_witness_on_direct_sums_matches_the_per_root_search(p, parts, basis, monkeypatch):
    # the search computes a kernel only at a root of exactly one Hessenberg
    # block, so it may pass a shift of nullity 1 whose root lies in two
    # blocks; on these sums it still takes the per-root search's operator,
    # and the witness, read off that operator's kernel, is the same
    l = _direct_sum(p, *parts)
    if basis == "random":
        l = on_random_basis(l, random.Random(10 * p + len(parts)))[0]
    v, square = _search_kernels(l, monkeypatch)
    assert not v.simple and v.detail == "proper ideal found"
    assert square[0] == _per_root_operator(l)
    _assert_proper_ideal(l, v.witness_ideal)


@pytest.mark.parametrize("table, detail, witness", [
    ({}, "abelian algebra", None),
    ({(0, 1): [(1, 1)]}, "derived algebra is proper", [(0, 1)]),    # [a, b] = b
])
def test_structural_verdicts(table, detail, witness):
    l = LieAlgebra(Field(5), ("a", "b"), table)
    expected = None if witness is None else Subspace.span(l.field, 2, witness)
    for verdict in (is_simple(l), meataxe_simple(l)):
        assert not verdict.simple and verdict.detail == detail
        assert verdict.witness_ideal == expected


# -- quotients ----------------------------------------------------------------

def test_quotient_action_witt5(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    y = witt5.basis_vector(0)
    h = (0, f.of(2), 0, 0, 0)
    s = Subspace.span(f, 5, [x, y, h])
    (m,) = quotient_action(witt5, s, [y])
    assert m.rows == m.cols == 2
    assert m.mul(m).is_zero()


def test_quotient_action_of_ideal_actor_is_zero(wittext5):
    c = center(wittext5)
    (m,) = quotient_action(wittext5, c, [wittext5.basis_vector(5)])
    assert m.is_zero()


def test_quotient_action_sl3():
    l = builtin("sl3", 7)
    e13, e31 = l.basis_vector(1), l.basis_vector(4)
    h13 = l.bracket(e13, e31)
    s = Subspace.span(l.field, 8, [e13, e31, h13])
    (m,) = quotient_action(l, s, [e13])
    assert m.rows == 5
    assert m.mul(m).is_zero()


def test_quotient_action_commutator_property(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    y = witt5.basis_vector(0)
    h = (0, f.of(2), 0, 0, 0)
    s = Subspace.span(f, 5, [x, y, h])
    mx, my = quotient_action(witt5, s, [x, y])
    mxy = quotient_action(witt5, s, [witt5.bracket(x, y)])[0]
    assert mxy == _commutator(mx, my)


def test_quotient_action_requires_invariance(witt5):
    s = Subspace.span(witt5.field, 5, [witt5.basis_vector(0)])
    with pytest.raises(InvarianceError):
        quotient_action(witt5, s, [witt5.basis_vector(2)])


def test_central_quotient_of_extension_is_witt(witt5, wittext5):
    q = quotient_algebra(wittext5, center(wittext5))
    assert q.names == witt5.names
    assert q.table == witt5.table
    assert to_json(q) == to_json(witt5)


def test_quotient_algebra_requires_ideal(witt5):
    s = Subspace.span(witt5.field, 5, [witt5.basis_vector(0)])
    with pytest.raises(InvarianceError):
        quotient_algebra(witt5, s)


# -- serialization ------------------------------------------------------------

@pytest.mark.parametrize("name,p", ALL_BUILTINS)
def test_json_round_trip(name, p):
    l = builtin(name, p)
    text = to_json(l)
    back = from_json(text)
    assert back.field == l.field
    assert back.names == l.names
    assert back.table == l.table
    assert to_json(back) == text  # writer is byte-stable


def test_json_rational_coefficients():
    l = builtin("sl2", 0)
    text = to_json(l)
    assert '"-2/1"' in text
    assert from_json(text).table == l.table


def test_json_rejects_malformed_documents(witt5):
    good = json.loads(to_json(witt5))

    def reject(mutate):
        doc = json.loads(to_json(witt5))
        mutate(doc)
        with pytest.raises(ParseError):
            from_json(json.dumps(doc))

    reject(lambda d: d["brackets"].append({"i": 3, "j": 1, "terms": [[0, "1"]]}))
    reject(lambda d: d["brackets"].append({"i": 2, "j": 2, "terms": [[0, "1"]]}))
    reject(lambda d: d["brackets"][0]["terms"].__setitem__(0, [9, "1"]))
    reject(lambda d: d["brackets"][0]["terms"].__setitem__(0, [0, "7"]))   # not reduced mod 5
    reject(lambda d: d["brackets"][0]["terms"].__setitem__(0, [0, "0"]))   # zero stored
    reject(lambda d: d["brackets"][0].update(extra=1))
    reject(lambda d: d.__setitem__("characteristic", 6))
    reject(lambda d: d.__setitem__("basis", ["a"]))
    reject(lambda d: d.pop("dim"))
    reject(lambda d: d["brackets"].append(dict(good["brackets"][0])))      # duplicate pair
    # The first bracket is [b_0, b_1] = b_0; bools pass as ints, false == 0, true == 1.
    assert good["brackets"][0] == {"i": 0, "j": 1, "terms": [[0, "1"]]}
    reject(lambda d: d["brackets"][0].update(i=False))
    reject(lambda d: d["brackets"][0].update(j=True))
    reject(lambda d: d["brackets"][0]["terms"][0].__setitem__(0, False))
    with pytest.raises(ParseError):
        from_json("not json at all {")


def test_parse_coords(witt5):
    assert parse_coords(witt5.field, "0,0,4,0,0", 5) == (0, 0, 4, 0, 0)
    with pytest.raises(ParseError):
        parse_coords(witt5.field, "1,2", 5)
    with pytest.raises(ParseError):
        parse_coords(witt5.field, "0,0,5,0,0", 5)
