"""Plain mod-p arithmetic shared by the input generator and the oracle.

Stdlib only and independent of lieext: vectors are lists of residues,
matrices are lists of rows, and an algebra is the sparse structure-constant
table read straight from its JSON file.
"""

from __future__ import annotations

import json


def inverse(m, p):
    """Inverse of a square matrix over GF(p), or None when singular."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        src = next((r for r in range(c, n) if a[r][c] % p), None)
        if src is None:
            return None
        a[c], a[src] = a[src], a[c]
        inv = pow(a[c][c], p - 2, p)
        a[c] = [x * inv % p for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def random_invertible(n, p, rng):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        inv = inverse(m, p)
        if inv is not None:
            return m, inv


def mat_vec(m, v, p):
    return [sum(a * b for a, b in zip(row, v)) % p for row in m]


def mat_mul(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


class Table:
    """Structure constants [b_i, b_j] = sum_k c_ijk b_k of an algebra file
    over GF(p)."""

    def __init__(self, doc):
        self.p = doc["characteristic"]
        self.dim = doc["dim"]
        self.pairs = [(e["i"], e["j"], [(k, int(c)) for k, c in e["terms"]])
                      for e in doc["brackets"]]

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def bracket(self, u, v):
        out = [0] * self.dim
        for i, j, terms in self.pairs:
            s = u[i] * v[j] - u[j] * v[i]
            if s:
                for k, c in terms:
                    out[k] += s * c
        return [x % self.p for x in out]
