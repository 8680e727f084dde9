import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieext import Field, Matrix, ShapeError, Subspace, eigenspace, kernel, rref, solve
from lieext.algebra import _sl, builtin
from lieext.linalg import (GrowingSpan, _charpoly, _nilpotent_pattern, _poly_mul, _roots, vec_add,
                           vec_combine, vec_scale)

from conftest import on_random_basis, rand_vec


def mat(field, rows):
    return Matrix.from_rows(field, [[field.of(x) for x in r] for r in rows])


def test_rref_proportional_rows(gf5):
    ech, rank, pivots = rref(mat(gf5, [[2, 4], [1, 2]]))
    assert rank == 1
    assert pivots == (0,)
    assert ech.data[0] == (1, 2)


def _identity(field, n):
    return mat(field, [[int(i == j) for j in range(n)] for i in range(n)])


def test_rref_identity_and_zero(gf7):
    eye = _identity(gf7, 4)
    ech, rank, _ = rref(eye)
    assert ech == eye and rank == 4
    z = mat(gf7, [[0] * 5] * 3)
    ech, rank, _ = rref(z)
    assert ech == z and rank == 0


def _sympy_matrix(a):
    """``a`` as a sympy ``DomainMatrix`` over GF(p) or QQ."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    dom = sympy.GF(a.field.p) if a.field.p else sympy.QQ
    to_dom = dom if a.field.p else (lambda x: dom(x.numerator, x.denominator))
    return DomainMatrix([[to_dom(x) for x in row] for row in a.data], (a.rows, a.cols), dom)


def _from_sympy(field, dm):
    def back(x):
        return field.of(int(x)) if field.p else Fraction(int(x.numerator), int(x.denominator))

    rows = tuple(tuple(back(x) for x in row) for row in dm.to_list())
    return Matrix(field, len(rows), dm.shape[1], rows)


def _oracle_rref(a):
    """Reduced echelon rows and pivot columns of ``a`` from sympy's
    ``DomainMatrix.rref``, zero rows dropped."""
    ech, pivots = _sympy_matrix(a).rref()
    return _from_sympy(a.field, ech).data[:len(pivots)], tuple(pivots)


def _oracle_kernel(a):
    """The reduced echelon basis of sympy's null space of ``a``."""
    return _oracle_rref(_from_sympy(a.field, _sympy_matrix(a).nullspace()))


def _oracle_cases(rng):
    """Matrices over GF(5), GF(7) and QQ of every rank, zero and 0-row ones,
    and tall ones with up to three times as many rows as columns, whose span
    fills up early."""
    for field in (Field(5), Field(7), Field(0)) * 30:
        cols = rng.randint(1, 6)
        rows = rng.randint(0, 3 * cols)
        rank = rng.choice([cols, rng.randint(0, cols)])
        gens = [rand_vec(field, cols, rng) for _ in range(rank)]
        data = tuple(vec_combine(field, [field.random(rng) for _ in gens], gens) if gens
                     else (field.zero,) * cols for _ in range(rows))
        yield field, Matrix(field, rows, cols, data)


def test_rref_idempotent_and_canonical(rng):
    # rref and kernel agree with sympy, and row-equivalent matrices
    # echelonize identically
    for field, a in _oracle_cases(rng):
        basis, pivots = _oracle_rref(a)
        ech, rank, got_pivots = rref(a)
        assert ech.data == basis + ((field.zero,) * a.cols,) * (a.rows - rank)
        assert (rank, got_pivots) == (len(basis), pivots)
        assert rref(ech)[0] == ech
        k = kernel(a)
        assert (k.basis, k.pivots) == _oracle_kernel(a)
        if not a.rows:
            continue
        # random invertible row operations
        b = [list(r) for r in a.data]
        for _ in range(8):
            i, j = rng.randrange(a.rows), rng.randrange(a.rows)
            c = field.random(rng) or field.one
            if i != j:
                b[i] = [field.add(x, field.mul(c, y)) for x, y in zip(b[i], b[j])]
            else:
                b[i] = [field.mul(c, x) for x in b[i]]
        assert rref(Matrix(field, a.rows, a.cols, tuple(map(tuple, b))))[0] == ech


def test_solve_identity_and_unsolvable(gf7, rng):
    eye = _identity(gf7, 3)
    b = rand_vec(gf7, 3, rng)
    assert solve(eye, b) == b
    zero = mat(gf7, [[0] * 3] * 3)
    assert solve(zero, (1, 0, 0)) is None
    assert solve(zero, (0, 0, 0)) == (0, 0, 0)


def test_solve_single_cell(gf5):
    a = mat(gf5, [[3]])
    assert solve(a, (1,)) == (2,)  # 3 * 2 == 6 == 1 (mod 5)


def test_solve_is_exact_on_random_systems(rng):
    for field in (Field(5), Field(7), Field(0)):
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = Matrix.from_rows(field, [rand_vec(field, cols, rng) for _ in range(rows)])
            x = rand_vec(field, cols, rng)
            b = a.apply(x)
            v = solve(a, b)
            assert v is not None
            assert a.apply(v) == b


def test_solve_shape_error(gf5):
    with pytest.raises(ShapeError):
        solve(mat(gf5, [[1, 2]]), (1, 2))


def test_kernel_zero_map_is_everything(gf5):
    assert kernel(mat(gf5, [[0] * 5] * 5)).dim == 5


def test_kernel_all_ones_gf5(gf5):
    k = kernel(mat(gf5, [[1, 1], [1, 1]]))
    assert k.dim == 1
    assert k.basis[0] == (1, 4)


def test_eigenspace_diagonal(gf5):
    a = mat(gf5, [[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    e2 = eigenspace(a, gf5.of(2))
    assert e2.dim == 1 and e2.basis[0] == (1, 0, 0)
    assert eigenspace(a, gf5.of(1)).dim == 0


def test_eigenspace_vectors_satisfy_definition(gf7, rng):
    for _ in range(20):
        n = rng.randint(1, 4)
        a = Matrix.from_rows(gf7, [rand_vec(gf7, n, rng) for _ in range(n)])
        lam = gf7.random(rng)
        for v in eigenspace(a, lam).basis:
            assert a.apply(v) == vec_scale(gf7, lam, v)


def _conjugate(a, rng):
    """g a g^-1 for a random invertible g."""
    f, n = a.field, a.rows
    while True:
        g = Matrix.from_rows(f, [rand_vec(f, n, rng) for _ in range(n)])
        if rref(g)[1] == n:
            break
    g_inv = Matrix.from_columns(f, [solve(g, tuple(int(i == j) for i in range(n))) for j in range(n)])
    return g.mul(a).mul(g_inv)


def _block_product(a):
    """The product of the block factors ``_charpoly`` returns."""
    out = [a.field.one]
    for block in _charpoly(a)[1]:
        out = _poly_mul(a.field, out, block)
    return out


def eigenvalues(a):
    """The distinct eigenvalues of ``a`` in GF(p), in increasing order."""
    return _roots(a.field, _charpoly(a)[0])


def roots_reference(f, c):
    """The roots of ``c`` in GF(p) found by evaluating it at every element."""
    return [r for r in f.elements()
            if not sum(ci * pow(r, i, f.p) for i, ci in enumerate(c)) % f.p]


@pytest.mark.parametrize("p", [31, 101, 251, 1009, 2**31 - 1])
def test_roots_agree_on_both_sides_of_the_enumeration_crossover(p, monkeypatch):
    # _roots tries every element while p <= 2 * bitlen(p) * len(c) and
    # otherwise splits gcd(c, x^p - x); both give the evaluated roots, on
    # monic polynomials with planted (possibly repeated) roots and a random
    # cofactor
    from lieext import linalg

    f, rng = Field(p), random.Random(p)
    crossover = -(-p // (2 * p.bit_length()))     # the least len(c) that enumerates
    powmods = []
    powmod = linalg._poly_powmod
    monkeypatch.setattr(linalg, "_poly_powmod", lambda *a: powmods.append(a) or powmod(*a))
    lengths = [crossover - 2, crossover - 1, crossover, crossover + 1] if p < 2**20 else [5, 9]
    for length in lengths:
        for _ in range(6):
            planted = [f.random(rng) for _ in range(rng.randrange(length))]
            c = [f.random(rng) for _ in range(length - len(planted) - 1)] + [f.one]
            for r in planted:
                c = _poly_mul(f, c, [f.neg(r), f.one])
            del powmods[:]
            roots = _roots(f, c)
            if p < 2**20:
                assert roots == roots_reference(f, c)
            else:   # too many elements to evaluate at
                assert set(planted) <= set(roots) and roots == sorted(set(roots))
                assert all(not linalg._poly_eval(f, c, r) for r in roots)
            assert bool(powmods) == (length < crossover), (p, length)


def test_charpoly_of_conjugated_companion_matrix(rng):
    # the companion matrix of a monic c has characteristic polynomial c
    for f in (Field(2), Field(7), Field(101)):
        for n in range(1, 7):
            c = [f.random(rng) for _ in range(n)] + [f.one]
            rows = [[int(i == j + 1) for j in range(n - 1)] + [f.neg(c[i])] for i in range(n)]
            a = _conjugate(mat(f, rows), rng)
            assert _charpoly(a)[0] == _block_product(a) == c


def reference_charpoly(a):
    """det(x*1 - a) by the single recurrence over the whole Hessenberg form,
    reduced after every operation: the reference for the block factors."""
    f, n = a.field, a.rows
    h = [list(r) for r in a.data]
    for m in range(n - 2):
        src = next((i for i in range(m + 1, n) if h[i][m]), None)
        if src is None:
            continue
        if src != m + 1:
            h[src], h[m + 1] = h[m + 1], h[src]
            for row in h:
                row[src], row[m + 1] = row[m + 1], row[src]
        inv = f.inv(h[m + 1][m])
        for i in range(m + 2, n):
            u = f.mul(h[i][m], inv)
            if u:
                h[i] = [f.sub(x, f.mul(u, y)) for x, y in zip(h[i], h[m + 1])]
                for row in h:
                    row[m + 1] = f.add(row[m + 1], f.mul(u, row[i]))
    minors = [[f.one]]
    for k in range(n):
        nxt = [f.zero] + minors[k]
        for j, y in enumerate(minors[k]):
            nxt[j] = f.sub(nxt[j], f.mul(h[k][k], y))
        t = f.one
        for i in range(k - 1, -1, -1):
            t = f.mul(t, h[i + 1][i])
            if not t:
                break
            c = f.mul(h[i][k], t)
            if c:
                for j, y in enumerate(minors[i]):
                    nxt[j] = f.sub(nxt[j], f.mul(c, y))
        minors.append(nxt)
    return minors[n]


def _block_cases(rng):
    """Random matrices, sparse ones among them so that the Hessenberg form
    splits, and ad matrices of sl_n and witt5."""
    for f in (Field(5), Field(7), Field(2**31 - 1)):
        for _ in range(25):
            n = rng.randint(1, 8)
            density = rng.choice((0.2, 0.5, 1.0))
            yield Matrix.from_rows(f, [[f.random(rng) if rng.random() < density else 0
                                        for _ in range(n)] for _ in range(n)])
    algebras = [builtin("witt5", 5), _sl(Field(5), 4), _sl(Field(7), 4), _sl(Field(7), 3)]
    algebras.append(on_random_basis(_sl(Field(5), 3), rng)[0])
    for l in algebras:
        for i in range(l.dim):
            yield l.ad(l.basis_vector(i))
        for _ in range(3):
            yield l.ad(rand_vec(l.field, l.dim, rng))


def test_charpoly_blocks_multiply_to_the_characteristic_polynomial(rng):
    split = 0
    for a in _block_cases(rng):
        chi, blocks = _charpoly(a)
        assert all(b[-1] == a.field.one for b in blocks)
        assert chi == _block_product(a) == reference_charpoly(a)
        split += len(blocks) > 1
    assert split > 10


def test_a_root_of_exactly_one_block_has_nullity_one(rng):
    # an unreduced Hessenberg block is nonderogatory, and the rank of a block
    # triangular matrix is at least the sum of its diagonal blocks' ranks
    singles = 0
    for a in _block_cases(rng):
        roots = [lam for block in _charpoly(a)[1] for lam in _roots(a.field, block)]
        for lam in set(roots):
            if roots.count(lam) == 1:
                assert eigenspace(a, lam).dim == 1
                singles += 1
    assert singles > 50


@st.composite
def _patterned(draw):
    """A square matrix over GF(2), GF(5), GF(7) or QQ, about half its entries
    zero: sparse, strictly upper triangular, strictly triangular on a
    permuted basis, or one of those with a nonzero diagonal entry."""
    p = draw(st.sampled_from((2, 5, 7, 0)))
    f = Field(p)
    n = draw(st.integers(1, 7))
    nonzero = (st.integers(1, p - 1) if p else
               st.fractions(-5, 5, max_denominator=4).filter(bool))
    entry = st.one_of(st.just(0), nonzero)
    kind = draw(st.sampled_from(("sparse", "triangular", "permuted", "diagonal")))
    cells = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if kind != "sparse":
        cells = [[c if i < j else 0 for j, c in enumerate(row)] for i, row in enumerate(cells)]
    if kind == "permuted":
        perm = draw(st.permutations(range(n)))
        cells = [[cells[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    if kind == "diagonal":
        k = draw(st.integers(0, n - 1))
        cells[k][k] = draw(nonzero)
    return Matrix.from_rows(f, cells)


def _pattern_reference(a):
    """Two zero columns or more, and the 0/1 pattern of ``a`` nilpotent:
    its n-th boolean power, taken as sets of reachable rows, is zero."""
    n = a.rows
    zero_columns = sum(not any(row[j] for row in a.data) for j in range(n))
    step = [{k for k in range(n) if a.data[k][j]} for j in range(n)]   # j -> k
    reach = step
    for _ in range(n - 1):
        reach = [set().union(*(step[k] for k in targets)) for targets in reach]
    return zero_columns >= 2 and not any(reach)


@settings(max_examples=300, deadline=None)
@given(_patterned())
def test_nilpotent_pattern_fires_only_where_charpoly_has_no_single_block_root(a):
    # meataxe_simple skips _charpoly where the test fires: chi must then be
    # x^n, its one root 0, and 0 a root of two blocks or more (roots are
    # found over GF(p) only)
    columns = {j: [(k, a.data[k][j]) for k in range(a.rows) if a.data[k][j]]
               for j in range(a.cols)}
    fires = _nilpotent_pattern(a.cols, {j: terms for j, terms in columns.items() if terms})
    assert fires == _pattern_reference(a)
    if fires:
        f, n = a.field, a.rows
        chi, blocks = _charpoly(a)
        assert chi == [f.zero] * n + [f.one]
        assert not f.p or _roots(f, chi) == [f.zero]
        assert sum(not b[0] for b in blocks) >= 2
        assert kernel(a).dim >= 2


def test_charpoly_needs_a_square_matrix(gf7):
    with pytest.raises(ShapeError):
        _charpoly(mat(gf7, [[1, 2]]))


def test_eigenvalues_are_the_singular_shifts(rng):
    for f in (Field(2), Field(3), Field(7)):
        for _ in range(30):
            n = rng.randint(1, 6)
            a = Matrix.from_rows(f, [rand_vec(f, n, rng) for _ in range(n)])
            assert eigenvalues(a) == [lam for lam in f.elements()
                                      if eigenspace(a, lam).dim > 0]


def test_eigenvalues_of_planted_spectra(rng):
    # a conjugated triangular matrix has its diagonal as spectrum; past
    # p = n + 1 the roots come from gcd(charpoly, x^p - x), not enumeration
    for f in (Field(3), Field(11), Field(1009), Field(2**31 - 1)):
        for _ in range(12):
            n = rng.randint(1, 7)
            spectrum = [f.random(rng) for _ in range(rng.randint(1, 3))]
            diag = [rng.choice(spectrum) for _ in range(n)]
            rows = [[diag[i] if i == j else (f.random(rng) if i < j else 0)
                     for j in range(n)] for i in range(n)]
            assert eigenvalues(_conjugate(mat(f, rows), rng)) == sorted(set(diag))


def test_eigenvalues_outside_the_prime_field(gf7):
    # x^2 - 3 is irreducible over GF(7): the rotation has no eigenvalue there
    assert eigenvalues(mat(gf7, [[0, 3], [1, 0]])) == []
    assert eigenvalues(mat(Field(101), [[0, 2], [1, 0]])) == []


def test_rank_nullity(rng):
    for field in (Field(5), Field(7), Field(0)):
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = Matrix.from_rows(field, [rand_vec(field, cols, rng) for _ in range(rows)])
            _, rank, _ = rref(a)
            assert rank + kernel(a).dim == cols


def test_subspace_unit_ops(gf5):
    u = Subspace.span(gf5, 3, [(1, 0, 0)])
    z = Subspace.span(gf5, 3, [])
    assert z.dim == 0 and Subspace.span(gf5, 3, u.basis + z.basis) == u
    v = Subspace.span(gf5, 3, [(0, 1, 0)])
    s = Subspace.span(gf5, 3, u.basis + v.basis)
    assert s.dim == 2
    assert s.contains((1, 1, 0))
    assert not s.contains((0, 0, 1))


def test_subspace_equality_is_canonical(gf5, rng):
    for _ in range(20):
        n = 4
        vecs = [rand_vec(gf5, n, rng) for _ in range(3)]
        u = Subspace.span(gf5, n, vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        scaled = [vec_scale(gf5, gf5.of(rng.randrange(1, 5)), v) for v in shuffled]
        assert Subspace.span(gf5, n, scaled + [vec_add(gf5, vecs[0], vecs[1])]) == u


def test_subspace_coords_reconstruct(gf5, rng):
    s = Subspace.span(gf5, 4, [rand_vec(gf5, 4, rng) for _ in range(2)])
    for row in s.basis:
        coords = s.coords(row)
        assert coords is not None
        rebuilt = (gf5.zero,) * 4
        for c, b in zip(coords, s.basis):
            rebuilt = vec_add(gf5, rebuilt, vec_scale(gf5, c, b))
        assert rebuilt == row
    assert s.coords((1, 1, 1, 1)) is None or s.contains((1, 1, 1, 1))


def test_subspace_ambient_mismatch(gf5):
    u = Subspace.span(gf5, 3, [(1, 0, 0)])
    v = Subspace.span(gf5, 2, [(1, 0)])
    with pytest.raises(ShapeError):
        Subspace.span(gf5, 3, u.basis + v.basis)
    with pytest.raises(ShapeError):
        u.reduce(v.basis[0])


def test_growing_span_agrees_with_canonical_span(rng):
    # GrowingSpan and Subspace.span give sympy's reduced echelon basis; once
    # the span is full, every further vector is turned away
    for field, a in _oracle_cases(rng):
        basis, pivots = _oracle_rref(a)
        g = GrowingSpan(field, a.cols)
        grown = sum(1 for v in a.data if g.insert(v))
        assert grown == g.dim == len(basis)
        for s in (g.to_subspace(), Subspace.span(field, a.cols, a.data)):
            assert (s.basis, s.pivots) == (basis, pivots)
        assert not g.insert((field.zero,) * a.cols)
        if g.dim == a.cols:
            assert not g.insert(rand_vec(field, a.cols, rng))


def test_transpose_keeps_empty_shapes_and_undoes_itself(gf7, rng):
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        a = Matrix(gf7, rows, cols, ((),) * rows)
        t = a.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        back = t.transpose()
        assert (back.rows, back.cols, back.data) == (rows, cols, a.data)
    for _, a in _oracle_cases(rng):
        t = a.transpose()
        assert (t.rows, t.cols) == (a.cols, a.rows)
        assert all(t.data[j][i] == x for i, row in enumerate(a.data) for j, x in enumerate(row))
        assert t.transpose() == a and t.transpose().rows == a.rows


def test_closure_stops_applying_once_the_span_is_full(monkeypatch):
    # from e in sl2: ad(e) e = 0, ad(f) e = -h is new, ad(h) e = 2e; then
    # ad(e) h = 2e, ad(f) h = 2f fills the space, and ad(h) h is not taken
    l = builtin("sl2", 5)
    mats = [l.ad(l.basis_vector(i)) for i in range(3)]
    applied = []
    apply = Matrix.apply
    monkeypatch.setattr(Matrix, "apply", lambda m, v: applied.append(v) or apply(m, v))
    g = GrowingSpan(l.field, 3)._close([m.apply for m in mats], [l.basis_vector(0)])
    assert g.dim == 3
    assert len(applied) == 5
