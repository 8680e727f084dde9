import random

import pytest

from lieext import Field, LieAlgebra, builtin
from lieext.linalg import Matrix, rref, solve


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
    table = {}
    for i in range(l.dim):
        for j in range(i + 1, l.dim):
            coords = solve(g, l.bracket(cols[i], cols[j]))
            table[(i, j)] = [(k, c) for k, c in enumerate(coords) if c]
    old_basis = [solve(g, l.basis_vector(i)) for i in range(l.dim)]
    return LieAlgebra(f, l.names, table), old_basis
