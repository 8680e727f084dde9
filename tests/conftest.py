import random

import pytest

from lieext import Field, InvarianceError, LieAlgebra, builtin
from lieext.linalg import Matrix, rref, solve, vec_is_zero


@pytest.fixture
def gf5():
    return Field(5)


@pytest.fixture
def gf7():
    return Field(7)


@pytest.fixture
def qq():
    return Field(0)


@pytest.fixture
def witt5():
    return builtin("witt5", 5)


@pytest.fixture
def wittext5():
    return builtin("wittext5", 5)


# (builtin, characteristic, index or coords of a designated extremal element)
SIMPLE_CASES = [
    ("sl2", 5, (1, 0, 0)),
    ("sl2", 7, (1, 0, 0)),
    ("sl3", 5, None),
    ("sl3", 7, None),
    ("sl4", 5, None),
    ("sl4", 7, None),
    ("witt5", 5, "witt_x"),
]


def designated(name, p):
    l = builtin(name, p)
    if name.startswith("witt"):
        return l, (0, 0, l.field.of(-1)) + (0,) * (l.dim - 3)
    if name == "sl2":
        return l, l.basis_vector(0)
    if name == "sl3":
        return l, l.basis_vector(1)   # E13
    return l, l.basis_vector(2)       # E14 in sl4


def ad_chain(l, z, x):
    """The chain (x, ad_z x, ..., ad_z^4 x) that ``exp_ad`` sums, after
    checking that ad_z^5 x = 0."""
    adz = l.ad(z)
    chain = [l.check_vector(x)]
    for _ in range(4):
        chain.append(adz.apply(chain[-1]))
    assert vec_is_zero(adz.apply(chain[-1])), "ad_z is not nilpotent of order 5 on x"
    return tuple(chain)


@pytest.fixture
def rng():
    return random.Random(20240611)


def rand_vec(field, n, rng):
    return tuple(field.random(rng) for _ in range(n))


def on_random_basis(l, rng):
    """``l`` on the basis g b_i for a random invertible g, with the old basis
    vectors in the new coordinates; the structure constants come out dense."""
    f = l.field
    while True:
        cols = [rand_vec(f, l.dim, rng) for _ in range(l.dim)]
        g = Matrix.from_columns(f, cols)
        if rref(g)[1] == l.dim:
            break
    old_basis = [solve(g, l.basis_vector(i)) for i in range(l.dim)]
    g_inv = Matrix.from_columns(f, old_basis)
    table = {}
    for i in range(l.dim):
        for j in range(i + 1, l.dim):
            coords = g_inv.apply(l.bracket(cols[i], cols[j]))
            table[(i, j)] = [(k, c) for k, c in enumerate(coords) if c]
    return LieAlgebra(f, l.names, table), old_basis


def over_quadratic_extension(l, d):
    """``l`` tensored with GF(p^2) = GF(p)[i]/(i^2 - d), d a non-square, as
    an algebra over GF(p): basis b_k, then i b_k.  Every ad(x) - lambda*1 is
    GF(p^2)-linear, so each of its kernels has even dimension over GF(p)."""
    f, n = l.field, l.dim
    table = {}
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            coords = l.bracket(l.basis_vector(a % n), l.basis_vector(b % n))
            scale = d if a >= n and b >= n else 1           # i * i = d
            shift = n if (a >= n) != (b >= n) else 0        # one factor i
            table[(a, b)] = [(k + shift, f.mul(scale, c)) for k, c in enumerate(coords) if c]
    return LieAlgebra(f, list(l.names) + ["i" + s for s in l.names], table)


def restrict_operator(m, s):
    """Matrix of an operator on an invariant subspace, in its echelon basis."""
    cols = []
    for row in s.basis:
        coords = s.coords(m.apply(row))
        if coords is None:
            raise InvarianceError("operator does not preserve the subspace")
        cols.append(coords)
    return Matrix.from_columns(m.field, cols)
