"""The exact arithmetic kernel against per-operation references.

``bracket``, ``ad``, ``Matrix.apply``, ``GrowingSpan.insert``,
``Subspace.reduce`` and the ``vec_*`` helpers add and multiply with ``+``
and ``*`` and canonicalize once per accumulated value.  The references
below reduce after every operation, through ``Field.add`` and
``Field.mul``; both must give the same canonical scalars on dense random
input over small and large primes and over the rationals.  Also here: the
listed nonzero columns of ``Matrix.apply``, the centre against the
all-equations kernel and against the stacked dense adjoints, and the
callers of ``Field.add``, ``Field.mul`` and ``Field.inv`` that the
benchmark's traced run counts on.
"""

import collections
import io
import random
from fractions import Fraction

import pytest

from lieext import Field, LieAlgebra, builtin, to_json
from lieext.algebra import BUILTIN_NAMES, _sl, center
from lieext.cli import run
from lieext.extremal import apply_functional
from lieext.linalg import (GrowingSpan, Matrix, Subspace, kernel, vec_add, vec_combine,
                           vec_ratio, vec_scale, vec_sub)

from conftest import on_random_basis, rand_vec

FIELDS = [Field(5), Field(7), Field(2**31 - 1), Field(0)]


def canonical(field, values):
    """Every value is an int in [0, p) over GF(p), a Fraction over Q."""
    if field.p:
        return all(type(a) is int and 0 <= a < field.p for a in values)
    return all(type(a) is Fraction for a in values)


def dense_table(field, n, rng):
    """A random table with every pair and most targets nonzero; it need not
    satisfy the Jacobi identity."""
    return LieAlgebra(field, [f"b{i}" for i in range(n)], {
        (i, j): [(k, field.random(rng)) for k in range(n)]
        for i in range(n) for j in range(i + 1, n)})


# -- references: one Field operation at a time ----------------------------------

def ref_bracket(l, u, v):
    f = l.field
    out = [f.zero] * l.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, terms in l._rows[i].items():
            if v[j]:
                s = f.mul(ui, v[j])
                for k, c in terms:
                    out[k] = f.add(out[k], f.mul(s, c))
    return tuple(out)


def ref_ad(l, x):
    f = l.field
    data = [[f.zero] * l.dim for _ in range(l.dim)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, terms in l._rows[i].items():
            for k, c in terms:
                data[k][j] = f.add(data[k][j], f.mul(xi, c))
    return Matrix(f, l.dim, l.dim, tuple(map(tuple, data)))


def ref_dot(f, u, v):
    acc = f.zero
    for a, b in zip(u, v):
        if a and b:
            acc = f.add(acc, f.mul(a, b))
    return acc


def ref_apply(m, vec):
    return tuple(ref_dot(m.field, row, vec) for row in m.data)


def ref_insert(f, rows, ambient, vec):
    """GrowingSpan.insert on the dict ``rows`` of pivot -> normalized row."""
    if len(rows) == ambient:
        return False
    v = list(vec)
    for c in range(ambient):
        x = v[c]
        if not x:
            continue
        row = rows.get(c)
        if row is None:
            inv = f.inv(x)
            rows[c] = tuple(f.mul(inv, y) for y in v)
            return True
        for i in range(c, ambient):
            if row[i]:
                v[i] = f.sub(v[i], f.mul(x, row[i]))
    return False


def ref_reduce(s, vec):
    f = s.field
    v = list(vec)
    for row, p in zip(s.basis, s.pivots):
        c = v[p]
        if c:
            for i in range(s.ambient):
                if row[i]:
                    v[i] = f.sub(v[i], f.mul(c, row[i]))
    return tuple(v)


# -- the kernel against the references ------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_bracket_and_ad_match_the_references(field):
    rng = random.Random(f"bracket:{field.p}")
    l = dense_table(field, 6, rng)
    for _ in range(20):
        u, v = rand_vec(field, l.dim, rng), rand_vec(field, l.dim, rng)
        got = l.bracket(u, v)
        assert got == ref_bracket(l, u, v) and canonical(field, got)
        m = l.ad(u)
        assert m == ref_ad(l, u)
        assert all(canonical(field, row) for row in m.data)
        assert l.ad(u).apply(v) == got


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_apply_and_vector_helpers_match_the_references(field):
    rng = random.Random(f"apply:{field.p}")
    n = 7
    for density in (1.0, 0.3):
        rows = [[field.random(rng) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        m = Matrix.from_rows(field, rows)
        for _ in range(10):
            v = rand_vec(field, n, rng)
            for got in (m.apply(v), m.apply(v)):        # listing, then listed
                assert got == ref_apply(m, v) and canonical(field, got)
        u, v = rand_vec(field, n, rng), rand_vec(field, n, rng)
        c = field.random(rng)
        cases = [
            (vec_add(field, u, v), tuple(field.add(a, b) for a, b in zip(u, v))),
            (vec_sub(field, u, v), tuple(field.sub(a, b) for a, b in zip(u, v))),
            (vec_scale(field, c, u), tuple(field.mul(c, a) for a in u)),
            (vec_combine(field, v[:3], m.data[:3]), ref_apply(m.transpose(), v[:3] + (0,) * 4)),
            (m.mul(m).data[0], tuple(ref_dot(field, m.data[0], col) for col in m.transpose().data)),
        ]
        for got, want in cases:
            assert got == want and canonical(field, got)
        f_x = apply_functional(u, v, field)
        assert f_x == ref_dot(field, u, v) and canonical(field, [f_x])
        if any(u):
            w = vec_scale(field, c, u)
            assert vec_ratio(field, w, u) == c and canonical(field, [vec_ratio(field, w, u)])


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_growing_span_and_subspace_reduce_match_the_references(field):
    rng = random.Random(f"span:{field.p}")
    n = 8
    g, rows = GrowingSpan(field, n), {}
    basis = [rand_vec(field, n, rng) for _ in range(4)]
    vectors = basis + [vec_combine(field, rand_vec(field, 4, rng), basis) for _ in range(4)]
    vectors += [rand_vec(field, n, rng) for _ in range(6)]
    for v in vectors:
        assert g.insert(v) == ref_insert(field, rows, n, v)
        assert g.rows == rows
        assert all(canonical(field, row) for row in g.rows.values())
    s = Subspace.span(field, n, basis)
    for _ in range(10):
        v = rand_vec(field, n, rng)
        got = s.reduce(v)
        assert got == ref_reduce(s, v) and canonical(field, got)


def test_raw_sums_past_a_machine_word_reduce_to_the_residue():
    """Raw sums over GF(2^31 - 1) run past 2^62; one reduction still gives
    the residue."""
    f = Field(2**31 - 1)
    top = f.p - 1
    l = LieAlgebra(f, ["a", "b", "c"], {(0, 1): [(0, top), (1, top), (2, top)],
                                        (0, 2): [(0, top), (2, top)],
                                        (1, 2): [(1, top), (2, top)]})
    u = v = (top, top, top)
    assert l.bracket(u, (top, 1, top)) == ref_bracket(l, u, (top, 1, top))
    assert l.ad(u) == ref_ad(l, u)
    assert l.ad(v).apply(u) == ref_apply(ref_ad(l, v), u)


def test_reduce_takes_the_remainder_of_each_value():
    """Field.reduce is x % p, as Field.add and Field.mul take it: an
    integral Fraction comes back as its residue, and a value that is not a
    number raises instead of passing through."""
    f = Field(5)
    assert f.reduce([7, -1, Fraction(12)]) == (2, 4, 2)
    assert f.reduce([Fraction(12)]) == (f.add(Fraction(12), 0),)
    with pytest.raises(TypeError):
        f.reduce([None])
    assert Field(0).reduce([Fraction(1, 3)]) == (Fraction(1, 3),)


def test_kernel_makes_no_per_operation_field_calls(monkeypatch):
    f = Field(7)
    rng = random.Random(3)
    l = dense_table(f, 5, rng)
    u, v = rand_vec(f, 5, rng), rand_vec(f, 5, rng)
    m = Matrix.from_rows(f, [rand_vec(f, 5, rng) for _ in range(5)])
    s = Subspace.span(f, 5, [u, v])

    def refuse(*args):
        raise AssertionError("per-operation Field call in the kernel")

    for name in ("add", "sub", "mul"):
        monkeypatch.setattr(Field, name, refuse)
    l.bracket(u, v)
    l.ad(u).apply(v)
    m.apply(u)
    m.mul(m)
    g = GrowingSpan(f, 5)
    for w in (u, v, vec_add(f, u, v), vec_sub(f, u, v), vec_scale(f, 3, u)):
        g.insert(w)
    s.reduce(vec_combine(f, (1, 2), (u, v)))
    vec_ratio(f, vec_scale(f, 4, u), u)
    apply_functional(u, v, f)


# -- the sparse rows of Matrix.apply ---------------------------------------------

def test_matrix_value_ignores_its_listed_nonzero_columns():
    f = Field(5)
    a = Matrix.from_rows(f, [[1, 0, 2], [0, 0, 0], [3, 4, 0]])
    b = Matrix.from_rows(f, [[1, 0, 2], [0, 0, 0], [3, 4, 0]])
    a.apply((1, 1, 1))
    assert a._nonzero is not None and b._nonzero is None
    assert a == b and hash(a) == hash(b)
    assert a.apply((1, 2, 3)) == b.apply((1, 2, 3)) == (2, 0, 1)


# -- the centre against the all-equations kernel ------------------------------------

def center_by_all_equations(l):
    """The centre as the kernel of one equation per nonzero row k of an
    ad(b_i), read from the stored constants."""
    eqs = {}
    for i, terms_of in enumerate(l._rows):
        for j, terms in terms_of.items():
            for k, c in terms:
                eqs.setdefault((i, k), [l.field.zero] * l.dim)[j] = c
    return kernel(Matrix(l.field, len(eqs), l.dim, tuple(map(tuple, eqs.values()))))


def _center_cases():
    sl5 = _sl(Field(5), 5)
    yield "sl5/F5", sl5
    for seed in (1, 2):
        yield f"sl5/F5 random basis {seed}", on_random_basis(sl5, random.Random(seed))[0]
    yield "sl5/F7 random basis", on_random_basis(_sl(Field(7), 5), random.Random(3))[0]
    yield "abelian", LieAlgebra(Field(7), ["a", "b", "c", "d"], {})
    for name in BUILTIN_NAMES:
        for p in ((5,) if name.startswith("witt") else (5, 7, 0)):
            yield f"{name}/{p}", builtin(name, p)


@pytest.mark.parametrize("l", [pytest.param(l, id=name) for name, l in _center_cases()])
def test_center_matches_the_all_equations_kernel(l):
    c = center(l)
    assert c == center_by_all_equations(l)
    assert all(not any(l.bracket(l.basis_vector(i), v)) for v in c.basis for i in range(l.dim))


def center_by_stacked_adjoints(l):
    """The centre as the kernel of the n^2 x n matrix stacking every dense
    ad(b_i): v is central exactly when ad(b_i) v = [b_i, v] = 0 for all i."""
    rows = [row for i in range(l.dim) for row in l.ad(l.basis_vector(i)).data]
    return kernel(Matrix(l.field, len(rows), l.dim, tuple(rows)))


def _sum_of(p, *parts):
    """The direct sum of builtins over GF(p) (or Q), summands in order."""
    table, names = {}, []
    for name in parts:
        summand = builtin(name, p)
        shift = len(names)
        table.update({(i + shift, j + shift): [(k + shift, c) for k, c in terms]
                      for (i, j), terms in summand.table.items()})
        names += [f"{b}{shift}" for b in summand.names]
    return LieAlgebra(Field(p), names, table)


def _stacked_cases():
    for name in BUILTIN_NAMES:
        for p in ((5,) if name.startswith("witt") else (5, 7, 0)):
            yield f"{name}/{p}", builtin(name, p)
    for p in (3, 5, 7):                                 # the scalars are central
        yield f"sl{p}/F{p}", _sl(Field(p), p)
    yield "abelian/F7", LieAlgebra(Field(7), ["a", "b", "c", "d"], {})
    yield "abelian/Q", LieAlgebra(Field(0), ["a"], {})
    yield "sl2+heisenberg/F5", _sum_of(5, "sl2", "heisenberg")
    yield "witt5+wittext5/F5", _sum_of(5, "witt5", "wittext5")
    yield "heisenberg+heisenberg/Q", _sum_of(0, "heisenberg", "heisenberg")
    yield "sl3+sl2/F7", _sum_of(7, "sl3", "sl2")
    for name, l, seed in (("sl5/F5", _sl(Field(5), 5), 4), ("sl4/F7", builtin("sl4", 7), 5),
                          ("wittext5/F5", builtin("wittext5", 5), 6),
                          ("sl2+heisenberg/F7", _sum_of(7, "sl2", "heisenberg"), 7),
                          ("sl3/Q", builtin("sl3", 0), 8),
                          ("heisenberg+sl2/Q", _sum_of(0, "heisenberg", "sl2"), 9)):
        yield f"{name} random basis", on_random_basis(l, random.Random(seed))[0]


@pytest.mark.parametrize("l", [pytest.param(l, id=name) for name, l in _stacked_cases()])
def test_center_is_the_kernel_of_the_stacked_adjoints(l):
    assert center(l) == center_by_stacked_adjoints(l)


def test_center_builds_no_matrix_and_calls_no_kernel(monkeypatch):
    # each cut eliminates the candidates' brackets with one b_i, tracking
    # the candidates, with no Matrix, kernel or Field.of in between
    from lieext import algebra

    cases = [builtin("wittext5", 5), _sl(Field(5), 5), _sum_of(0, "sl2", "heisenberg"),
             on_random_basis(_sl(Field(5), 4), random.Random(10))[0]]
    expected = [center(l) for l in cases]

    def refuse(*_args):
        raise AssertionError("center built a Matrix or called kernel or Field.of")

    monkeypatch.setattr(algebra, "kernel", refuse)
    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Field, "of", refuse)
    assert [center(l) for l in cases] == expected


def test_center_dimensions_of_known_algebras():
    assert center(_sl(Field(5), 5)).dim == 1            # the scalars, as 5 | 5
    assert center(_sl(Field(7), 5)).dim == 0
    assert center(builtin("wittext5", 5)).dim == 1
    assert center(builtin("heisenberg", 5)).basis == ((0, 0, 1),)
    assert center(LieAlgebra(Field(7), ["a", "b"], {})).dim == 2


# -- the Field callers the benchmark's traced run counts on --------------------------

def _field_calls(monkeypatch, argv_list):
    counts = collections.Counter()
    for name in ("add", "mul", "inv"):
        original = getattr(Field, name)

        def counted(self, *args, _original=original, _name=name):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Field, name, counted)
    for argv in argv_list:
        out = io.StringIO()
        monkeypatch.setattr("sys.stdout", out)
        assert run(argv) == 0
    monkeypatch.undo()
    return counts


def test_benchmark_jobs_still_call_field_add_mul_and_inv(monkeypatch, tmp_path):
    """perfbench's traced run fails when Field.add, Field.mul or Field.inv
    records no call on a workload; one job of each kind keeps them called."""
    sl3 = tmp_path / "sl3.json"
    sl3.write_text(to_json(builtin("sl3", 7)))
    sl2 = tmp_path / "sl2.json"
    sl2.write_text(to_json(builtin("sl2", 5)))
    certified = _field_calls(monkeypatch, [["classify", str(sl3), "--x", "0,1,0,0,0,0,0,0"]])
    assert all(certified[name] > 0 for name in ("add", "mul", "inv")), certified
    cert = _field_calls(monkeypatch, [["cert", "thm23_span.cert"]])
    assert cert["add"] > 0 and cert["mul"] > 0, cert
    scan = _field_calls(monkeypatch, [["extremal", str(sl2), "--exhaustive"]])
    assert scan["inv"] > 0, scan
