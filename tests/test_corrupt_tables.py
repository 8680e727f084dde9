"""Valid but corrupt algebra files: a table of a known algebra with one to
three structure constants changed still parses, so every command must get
through it to a documented exit code (0-3), never to an internal error (4)
or an escaping exception, whatever the broken Jacobi identity does to the
pipeline."""

import random

import pytest

from lieext import LieAlgebra, builtin, classify_element, complete_sl2, find_witness, to_json
from lieext.cli import EXIT_INTERNAL, run

# name, p, designated extremal x
ALGEBRAS = [
    ("sl3", 5, 1), ("sl3", 7, 1), ("sl3", 0, 1), ("sl4", 7, 2),
    ("witt5", 5, None), ("wittext5", 5, None),
]
PERTURBATIONS = 10  # corrupt tables per algebra


def designated(l, x_index):
    if x_index is not None:
        return l.basis_vector(x_index)
    return (0, 0, l.field.of(-1)) + (0,) * (l.dim - 3)   # -z^2 Dz


def perturbed(l, rng):
    """``l`` with one to three structure constants [b_i, b_j]_k set to a new
    value, possibly zero."""
    f, n = l.field, l.dim
    table = {pair: dict(terms) for pair, terms in l.table.items()}
    for _ in range(rng.randint(1, 3)):
        i, j = sorted(rng.sample(range(n), 2))
        k = rng.randrange(n)
        terms = table.setdefault((i, j), {})
        old = terms.get(k, f.zero)
        new = old
        while new == old:
            new = f.random(rng)
        terms[k] = new
    return LieAlgebra(f, l.names, {pair: list(t.items()) for pair, t in table.items()})


@pytest.mark.parametrize("name, p, x_index", ALGEBRAS)
def test_corrupt_tables_end_in_a_documented_exit_code(name, p, x_index, tmp_path, capsys):
    l = builtin(name, p)
    x = designated(l, x_index)
    st = classify_element(l, x)
    t, _ = complete_sl2(l, st, find_witness(l, st.functional))
    coords = [",".join(map(l.field.format, v)) for v in (t.x, t.y)]
    rng = random.Random(f"{name}/{p}")
    codes = set()
    for n in range(PERTURBATIONS):
        path = tmp_path / f"{name}_{p}_{n}.json"
        path.write_text(to_json(perturbed(l, rng)))
        for argv in (["classify", str(path), "--x", coords[0]],
                     ["classify", str(path), "--x", coords[0], "--assume-simple"],
                     ["sl2", str(path), "--x", coords[0]],
                     ["grade", str(path), "--x", coords[0], "--y", coords[1]]):
            code = run(argv)
            err = capsys.readouterr().err
            assert code != EXIT_INTERNAL, (argv, path.read_text(), err)
            assert 0 <= code <= 3, argv
            codes.add(code)
    assert codes - {0}, "no perturbation changed an outcome"
