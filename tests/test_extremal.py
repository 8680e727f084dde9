from itertools import product

import pytest

from lieext import (
    CapabilityError,
    DomainError,
    EXTREMAL,
    NOT_EXTREMAL,
    SANDWICH,
    builtin,
    classify_element,
    exhaustive_scan,
    scan_basis,
)
from lieext.classify import exp_ad
from lieext.extremal import ScanResult, apply_functional
from lieext.linalg import Matrix, kernel, solve, vec_is_zero, vec_scale

from conftest import ad_chain, on_random_basis, rand_vec


def test_witt5_seed_element_is_extremal(witt5):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)  # -z^2 Dz
    st = classify_element(witt5, x)
    assert st.kind == EXTREMAL
    assert st.functional[0] == f.of(-2)  # f(Dz) = -2


def test_witt5_top_basis_vector_is_sandwich(witt5):
    st = classify_element(witt5, witt5.basis_vector(4))
    assert st.kind == SANDWICH
    assert all(c == 0 for c in st.functional)


def test_sl2_semisimple_element_is_not_extremal():
    l = builtin("sl2", 5)
    st = classify_element(l, l.basis_vector(2))
    assert st.kind == NOT_EXTREMAL
    assert st.functional is None


def test_zero_vector_rejected(witt5):
    with pytest.raises(DomainError):
        classify_element(witt5, witt5.zero())


def test_scan_basis_witt5(witt5):
    kinds = [st.kind for st in scan_basis(witt5)]
    assert kinds == [NOT_EXTREMAL, NOT_EXTREMAL, EXTREMAL, NOT_EXTREMAL, SANDWICH]


def test_scan_basis_sl3_root_vectors():
    kinds = [st.kind for st in scan_basis(builtin("sl3", 7))]
    assert kinds[:6] == [EXTREMAL] * 6   # all off-diagonal matrix units
    assert kinds[6:] == [NOT_EXTREMAL] * 2


def test_scan_basis_heisenberg():
    assert [st.kind for st in scan_basis(builtin("heisenberg", 5))] == [SANDWICH] * 3


def test_functional_scales_linearly(witt5, rng):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    base = classify_element(witt5, x)
    for lam in range(1, 5):
        st = classify_element(witt5, vec_scale(f, f.of(lam), x))
        assert st.kind == EXTREMAL
        assert st.functional == vec_scale(f, f.of(lam), base.functional)


def test_functional_consistency_on_random_vectors(witt5, rng):
    f = witt5.field
    x = (0, 0, f.of(-1), 0, 0)
    st = classify_element(witt5, x)
    for _ in range(30):
        m = rand_vec(f, 5, rng)
        lhs = witt5.bracket(x, witt5.bracket(x, m))
        assert lhs == vec_scale(f, apply_functional(st.functional, m, f), x)


def _two_bracket_oracle(l, x):
    """Kind and functional of x from [x, [x, b_j]], two brackets per column."""
    f = l.field
    lead = next(i for i, c in enumerate(x) if c)
    functional = []
    for j in range(l.dim):
        w = l.bracket(x, l.bracket(x, l.basis_vector(j)))
        c = f.div(w[lead], x[lead])
        if w != vec_scale(f, c, x):
            return NOT_EXTREMAL, None
        functional.append(c)
    return (EXTREMAL if any(functional) else SANDWICH), tuple(functional)


@pytest.mark.parametrize("name, kinds", [
    ("witt5", {NOT_EXTREMAL, EXTREMAL, SANDWICH}),
    ("sl2", {NOT_EXTREMAL, EXTREMAL}),
    ("sl3", {NOT_EXTREMAL, EXTREMAL}),
])
def test_kernel_matches_bracket_oracle_on_a_random_basis(name, kinds, rng):
    l, old_basis = on_random_basis(builtin(name, 5), rng)
    vectors = old_basis + [rand_vec(l.field, l.dim, rng) for _ in range(200)]
    seen = set()
    for x in vectors:
        if vec_is_zero(x):
            continue
        st = classify_element(l, x)
        assert (st.kind, st.functional) == _two_bracket_oracle(l, x)
        seen.add(st.kind)
    assert seen == kinds


def test_sandwich_iff_squared_adjoint_vanishes(rng):
    for name, p in (("witt5", 5), ("heisenberg", 5), ("sl3", 5)):
        l = builtin(name, p)
        for _ in range(25):
            v = rand_vec(l.field, l.dim, rng)
            if vec_is_zero(v):
                continue
            a = l.ad(v)
            squared_zero = a.mul(a).is_zero()
            assert (classify_element(l, v).kind == SANDWICH) == squared_zero


# -- exhaustive scans ---------------------------------------------------------

def witt5_extremal_oracle():
    """Independent operator model: d_i acts on F5[z]/(z^5) by z^k -> k z^(k+i-1).

    Returns the extremal non-sandwich and sandwich vectors of the Witt
    algebra found by brute force over all 3124 nonzero coefficient tuples,
    computed entirely with 5x5 matrices (no library code)."""
    p = 5

    def mat(i):
        m = [[0] * 5 for _ in range(5)]
        for k in range(5):
            t = k + i - 1
            if 0 <= t < 5:
                m[t][k] = k % p
        return m

    def mmul(a, b):
        return [[sum(a[r][k] * b[k][c] for k in range(5)) % p for c in range(5)]
                for r in range(5)]

    def msub(a, b):
        return [[(x - y) % p for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def comm(a, b):
        return msub(mmul(a, b), mmul(b, a))

    basis = [mat(i) for i in range(5)]
    zero = [[0] * 5 for _ in range(5)]
    extremal, sandwich = [], []
    for coeffs in product(range(p), repeat=5):
        if not any(coeffs):
            continue
        v = [[sum(c * basis[i][r][col] for i, c in enumerate(coeffs)) % p
              for col in range(5)] for r in range(5)]
        images = [comm(v, comm(v, b)) for b in basis]
        multiples = [[[c * e % p for e in row] for row in v] for c in range(p)]
        if all(img in multiples for img in images):
            (sandwich if all(img == zero for img in images) else extremal).append(coeffs)
    return extremal, sandwich


def test_exhaustive_scan_witt5_matches_independent_oracle(witt5):
    scan = exhaustive_scan(witt5)
    oracle_extremal, oracle_sandwich = witt5_extremal_oracle()
    assert list(scan.extremal) == oracle_extremal
    assert list(scan.sandwich) == oracle_sandwich
    # The extremal non-sandwich locus is the plane spanned by z^2 Dz and
    # z^4 Dz minus the z^4 Dz line: 20 vectors in 5 scalar classes, a single
    # orbit of the z^2 Dz line under exp(ad t*z^3 Dz) and scalars.
    assert scan.counts == {NOT_EXTREMAL: 3100, SANDWICH: 4, EXTREMAL: 20}
    assert all(v[0] == v[1] == v[3] == 0 and v[2] != 0 for v in scan.extremal)
    assert all(v == (0, 0, 0, 0, c) for c, v in zip((1, 2, 3, 4), scan.sandwich))


def test_exhaustive_witt5_extremal_plane_is_an_exp_orbit(witt5):
    # exp(ad of t*z^3 Dz) maps z^2 Dz onto z^2 Dz - t*z^4 Dz, which together
    # with scalars sweeps out every extremal non-sandwich vector.
    f = witt5.field
    scan = exhaustive_scan(witt5)
    orbit = set()
    d2 = witt5.basis_vector(2)
    for t in range(5):
        z = vec_scale(f, f.of(t), witt5.basis_vector(3))
        image = exp_ad(witt5, ad_chain(witt5, z, d2))
        for lam in range(1, 5):
            orbit.add(vec_scale(f, f.of(lam), image))
    assert orbit == set(scan.extremal)


def test_exhaustive_scan_representatives_flag(witt5):
    scan = exhaustive_scan(witt5, representatives_only=True)
    assert len(scan.extremal) == 5
    assert all(v[2] == 1 for v in scan.extremal)
    assert scan.sandwich == ((0, 0, 0, 0, 1),)
    # counts are over all vectors regardless of the flag
    assert scan.counts[EXTREMAL] == 20


def test_exhaustive_scan_sl2():
    # Point-count oracle (Cohen-Steinbach-Ushirobira-Wales): the extremal
    # points of sl2 over F_q are the q + 1 lines of rank-one nilpotents, a
    # cone of q^2 - 1 vectors, and there are no sandwiches.
    for q in (5, 7, 11):
        l = builtin("sl2", q)
        scan = exhaustive_scan(l)
        assert scan.counts[EXTREMAL] == len(scan.extremal) == q * q - 1
        assert scan.counts[SANDWICH] == 0
        assert len(exhaustive_scan(l, representatives_only=True).extremal) == q + 1
        exts = set(scan.extremal)
        assert l.basis_vector(0) in exts and l.basis_vector(1) in exts
        assert l.basis_vector(2) not in exts


@pytest.mark.parametrize("name, p, pairing", [
    ("witt5", 5, False),    # f_x(y) = 0 on all 24 vectors the scan finds
    ("sl2", 5, True), ("sl2", 7, True), ("sl2", 11, True),
])
def test_extremal_form_is_symmetric(name, p, pairing):
    # Cohen-Steinbach-Ushirobira-Wales (J. Algebra 2001): [x, [x, y]] = 2 g(x, y) x
    # for one symmetric form g, so f_x(y) = f_y(x) on every pair the scan finds.
    l = builtin(name, p)
    scan = exhaustive_scan(l)
    functionals = {v: classify_element(l, v).functional for v in scan.extremal + scan.sandwich}
    nonzero = 0
    for x, fx in functionals.items():
        for y, fy in functionals.items():
            value = apply_functional(fx, y, l.field)
            assert value == apply_functional(fy, x, l.field), (x, y)
            nonzero += bool(value)
    assert bool(nonzero) == pairing


def _solve_extremal_form(l, vectors):
    """Gram matrix G of the form g with [x, [x, b]] = 2 g(x, b) x, from the
    functionals of the given extremal or sandwich vectors: each x and basis
    index b give the equation sum_a x_a G[a][b] = f_x(b) / 2 in the n^2
    unknowns G[a][b].  Returns the nullity of the system and one solution."""
    f, n = l.field, l.dim
    half = f.inv(f.of(2))
    rows, rhs = [], []
    for x in vectors:
        fx = classify_element(l, x).functional
        assert fx is not None, x
        for b in range(n):
            rows.append([x[a] if c == b else 0 for a in range(n) for c in range(n)])
            rhs.append(f.mul(fx[b], half))
    system = Matrix.from_rows(f, rows)
    sol = solve(system, rhs)
    assert sol is not None, "the functionals admit no common form"
    return kernel(system).dim, [sol[a * n:(a + 1) * n] for a in range(n)]


def _form(l, gram, u, v):
    f = l.field
    return apply_functional([apply_functional(row, v, f) for row in gram], u, f)


def _sl3_conjugates():
    # exp(ad(t e)) e' over root vectors e, e' of sl3 and t = 1, 2: 39 distinct
    # extremal vectors, enough to pin g down.
    l = builtin("sl3", 7)
    roots = [l.basis_vector(i) for i in range(6)]
    vectors = {exp_ad(l, ad_chain(l, vec_scale(l.field, l.field.of(t), z), x))
               for x in roots for z in roots for t in (1, 2)}
    assert len(vectors) == 39
    return l, sorted(vectors)


def _scanned(name, p):
    l = builtin(name, p)
    scan = exhaustive_scan(l)
    return l, scan.extremal + scan.sandwich


@pytest.mark.parametrize("case", ["sl2/F5", "sl2/F7", "sl2/F11", "sl3/F7"])
def test_extremal_form_is_unique_symmetric_and_associative(case):
    # Cohen-Steinbach-Ushirobira-Wales (J. Algebra 2001): one form g serves
    # every extremal x, and it is symmetric and associative.  On witt5 the
    # 24 scanned vectors leave g underdetermined (nullity 15), so witt5 is
    # left to the symmetry test above.
    name, p = case.split("/F")
    l, vectors = _sl3_conjugates() if name == "sl3" else _scanned(name, int(p))
    for x in vectors:
        assert classify_element(l, x).kind in (EXTREMAL, SANDWICH)
    nullity, gram = _solve_extremal_form(l, vectors)
    assert nullity == 0
    n = l.dim
    assert all(gram[a][b] == gram[b][a] for a in range(n) for b in range(n))
    basis = [l.basis_vector(i) for i in range(n)]
    for a, b, c in product(basis, repeat=3):
        assert _form(l, gram, l.bracket(a, b), c) == _form(l, gram, a, l.bracket(b, c))


def test_exhaustive_scan_heisenberg():
    scan = exhaustive_scan(builtin("heisenberg", 5))
    assert scan.counts == {NOT_EXTREMAL: 0, SANDWICH: 124, EXTREMAL: 0}


def test_exhaustive_restricted_to_basis_agrees_with_scan_basis(witt5):
    scan = exhaustive_scan(witt5)
    by_vector = {}
    for v in scan.extremal:
        by_vector[v] = EXTREMAL
    for v in scan.sandwich:
        by_vector[v] = SANDWICH
    for i, st in enumerate(scan_basis(witt5)):
        assert by_vector.get(witt5.basis_vector(i), NOT_EXTREMAL) == st.kind


def test_exhaustive_scan_capability_limits():
    with pytest.raises(CapabilityError, match="exhaustive scan needs a finite field"):
        exhaustive_scan(builtin("sl2", 0))
    with pytest.raises(CapabilityError, match=r"exhaustive scan limited to p\^n <= 10000000$"):
        exhaustive_scan(builtin("sl4", 7))  # 7^15 vectors


def _vector_scan(l, representatives_only):
    """Reference scan: classify every nonzero vector in ``product`` order and
    keep, with ``representatives_only``, those whose first nonzero
    coordinate is 1."""
    found = {SANDWICH: [], EXTREMAL: []}
    counts = {NOT_EXTREMAL: 0, SANDWICH: 0, EXTREMAL: 0}
    for v in product(l.field.elements(), repeat=l.dim):
        if vec_is_zero(v):
            continue
        kind = classify_element(l, v).kind
        counts[kind] += 1
        lead = next(c for c in v if c)
        if kind in found and (lead == 1 or not representatives_only):
            found[kind].append(v)
    return ScanResult(tuple(found[EXTREMAL]), tuple(found[SANDWICH]), counts,
                      representatives_only)


@pytest.mark.parametrize("case", ["sl2/F5", "sl2/F7 random basis", "sl2/F11", "sl2/F13", "witt5/F5",
                                  "heisenberg/F5", "wittext5/F5 random basis"])
@pytest.mark.parametrize("representatives_only", [False, True])
def test_exhaustive_scan_matches_vector_by_vector_scan(case, representatives_only, rng):
    name, p = case.split()[0].split("/F")
    l = builtin(name, int(p))
    if case.endswith("random basis"):
        l = on_random_basis(l, rng)[0]
    assert exhaustive_scan(l, representatives_only) == _vector_scan(l, representatives_only)


@pytest.mark.parametrize("name, p", [("witt5", 5), ("sl2", 7)])
def test_classification_is_constant_on_lines(name, p):
    # c x has the kind of x and the functional c f_x, which lets the scan
    # classify one vector per line.
    l = builtin(name, p)
    f = l.field
    status = {v: classify_element(l, v)
              for v in product(f.elements(), repeat=l.dim) if not vec_is_zero(v)}
    for v, st in status.items():
        for c in range(1, p):
            scaled = status[vec_scale(f, c, v)]
            assert scaled.kind == st.kind
            if st.functional is None:
                assert scaled.functional is None
            else:
                assert scaled.functional == vec_scale(f, c, st.functional)


@pytest.mark.parametrize("representatives_only", [False, True])
def test_exhaustive_scan_classifies_one_vector_per_line(monkeypatch, representatives_only):
    import lieext.extremal

    calls = []
    kernel = lieext.extremal._functional

    def counted(field, cols, x):
        calls.append(x)
        return kernel(field, cols, x)

    monkeypatch.setattr(lieext.extremal, "_functional", counted)
    scan = exhaustive_scan(builtin("sl2", 7), representatives_only)
    assert len(calls) == (7**3 - 1) // 6 == 57
    assert all(next(c for c in v if c) == 1 for v in calls)
    assert sum(scan.counts.values()) == 7**3 - 1


def _check_sl3_f5_point_count(l):
    # Point-count oracle (Cohen-Steinbach-Ushirobira-Wales): sl3 over F_q has
    # (q^3 - 1)(q^2 - 1)/(q - 1)^2 extremal points, 186 for q = 5, the lines
    # of rank-one nilpotent matrices; there are no sandwiches.
    q = 5
    scan = exhaustive_scan(l, representatives_only=True)
    points = (q**3 - 1) * (q**2 - 1) // (q - 1) ** 2
    assert len(scan.extremal) == points == 186
    assert scan.counts[EXTREMAL] == points * (q - 1) == 744
    assert scan.sandwich == () and scan.counts[SANDWICH] == 0
    assert sum(scan.counts.values()) == q**8 - 1


def test_exhaustive_scan_sl3_f5_point_count():
    _check_sl3_f5_point_count(builtin("sl3", 5))


def test_exhaustive_scan_sl3_f5_point_count_on_a_random_basis(rng):
    # The count belongs to the algebra, not to its basis.
    _check_sl3_f5_point_count(on_random_basis(builtin("sl3", 5), rng)[0])
