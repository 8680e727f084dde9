"""An oracle for extremality that shares no code with lieext.linalg or
LieAlgebra.ad: ad(x) is built with numpy from the structure constants of
the canonical JSON file and squared, mod p or over the rationals (as an
array of Fractions), and x is extremal when every column s_b of ad(x)^2
is proportional to x, that is when every 2 x 2 minor x_i s_jb - x_j s_ib
of the matrices [x | s_b] vanishes."""

import json
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from lieext import EXTREMAL, NOT_EXTREMAL, SANDWICH, builtin, classify_element, exhaustive_scan
from lieext.algebra import BUILTIN_NAMES, to_json

from conftest import on_random_basis


def structure_tensor(l):
    """T[i, j, k] = coefficient of b_k in [b_i, b_j], read from the JSON
    file: residues mod p, or Fractions when p = 0."""
    doc = json.loads(to_json(l))
    p, n = doc["characteristic"], doc["dim"]
    t = np.zeros((n, n, n), dtype=np.int64 if p else object)
    t[...] = 0 if p else Fraction(0)
    for entry in doc["brackets"]:
        for k, c in entry["terms"]:
            c = int(c) if p else Fraction(c)
            t[entry["i"], entry["j"], k] = c
            t[entry["j"], entry["i"], k] = -c
    return p, t


def oracle(p, t, x):
    """(kind, functional) of a nonzero x, with the functional f read off
    ad(x)^2 = x f once the rank test has passed."""
    mod = (lambda a: a % p) if p else (lambda a: a)
    x = mod(np.array(x, dtype=t.dtype))
    ad = mod(np.einsum("i,ijk->kj", x, t))         # column j is [x, b_j]
    sq = mod(ad @ ad)
    minors = mod(np.einsum("i,jb->ijb", x, sq) - np.einsum("j,ib->ijb", x, sq))
    if any(minors.flat):
        return NOT_EXTREMAL, None
    lead = next(i for i, a in enumerate(x) if a)
    if p:
        inv = pow(int(x[lead]), p - 2, p)
        functional = tuple(int(c) * inv % p for c in sq[lead])
    else:
        functional = tuple(c / x[lead] for c in sq[lead])
    return (EXTREMAL if any(functional) else SANDWICH), functional


def sample_vectors(field, basis, rng, count):
    """Nonzero multiples of the given basis vectors, then dense random
    vectors and vectors with one or two nonzero coordinates."""
    n = len(basis)
    out = []
    for b in basis:
        s = field.random(rng) or field.one
        out.append(tuple(field.reduce_scalar(s * c) for c in b))
    while len(out) < n + count:
        support = range(n) if len(out) % 2 else rng.sample(range(n), rng.randint(1, 2))
        v = [field.zero] * n
        for i in support:
            v[i] = field.random(rng)
        if any(v):
            out.append(tuple(v))
    return out


CASES = [(name, p) for name in BUILTIN_NAMES for p in (5, 7, 11)
         if not (name.startswith("witt") and p != 5)] + [("sl2", 0), ("sl3", 0), ("heisenberg", 0)]


@pytest.mark.parametrize("random_basis", [False, True])
@pytest.mark.parametrize("name, p", CASES)
def test_classify_element_matches_the_numpy_oracle(name, p, random_basis):
    # The standard basis vectors, in the coordinates of the basis in use,
    # include root vectors, extremal or sandwich in every builtin.
    rng = random.Random(f"{name}/{p}/{random_basis}")
    l = builtin(name, p)
    basis = [l.basis_vector(i) for i in range(l.dim)]
    if random_basis:
        l, basis = on_random_basis(l, rng)
    _, t = structure_tensor(l)
    kinds = set()
    for x in sample_vectors(l.field, basis, rng, 60):
        st = classify_element(l, x)
        assert (st.kind, st.functional) == oracle(p, t, x), x
        kinds.add(st.kind)
    assert kinds & {EXTREMAL, SANDWICH}


@pytest.mark.parametrize("case", ["sl2/F11", "heisenberg/F7", "witt5/F5", "wittext5/F5 random basis"])
def test_exhaustive_scan_matches_the_numpy_oracle_line_by_line(case):
    name, p = case.split()[0].split("/F")
    l, p = builtin(name, int(p)), int(p)
    if case.endswith("random basis"):
        l = on_random_basis(l, random.Random(case))[0]
    _, t = structure_tensor(l)
    scan = exhaustive_scan(l, representatives_only=True)
    found = {EXTREMAL: [], SANDWICH: []}
    for v in product(range(p), repeat=l.dim):
        if any(v) and next(c for c in v if c) == 1:
            kind = oracle(p, t, v)[0]
            if kind in found:
                found[kind].append(v)
    assert (scan.extremal, scan.sandwich) == (tuple(found[EXTREMAL]), tuple(found[SANDWICH]))
