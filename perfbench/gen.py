"""Seeded input generator for the benchmark workloads.

Everything is drawn from ``random.Random`` seeded by the workload name and
``--seed``.  Algebras come from lieext's own constructors (``builtin`` and
``_sl``) and are written with ``to_json``; a random change of basis is
applied here by solving for the new structure constants, so the program
only ever sees the finished files.  Each job carries the facts the oracle
needs to check its answer; the program never sees those.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from lieext.algebra import LieAlgebra, _sl, builtin, to_json
from lieext.fields import Field

import modp
import oracle


class Inputs:
    """Files written for one run and the distinct jobs that read them.

    Inputs are drawn in rounds: each round is one job cycle with fresh
    random draws, so a run that repeats its cycle still sees new inputs."""

    def __init__(self, outdir, rel):
        self.outdir = outdir
        self.rel = rel          # outdir as seen from the checkout root
        self.jobs = []          # job dicts; "argv" is what the program gets
        self.round = 0
        self.standard = {}      # (name, p) -> (path, algebra), shared by rounds

    def write(self, name, text):
        with open(os.path.join(self.outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return f"{self.rel}/{name}"

    def add(self, weight, **job):
        job["weight"] = weight
        job["round"] = self.round
        self.jobs.append(job)


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

def standard(name, p):
    """Builtin algebra, or sl_n through the existing constructor for n >= 5."""
    if name.startswith("sl") and int(name[2:]) >= 5:
        return _sl(Field(p), int(name[2:]))
    return builtin(name, p)


def rebase(l, rng):
    """The same algebra on a random basis c_i = sum_a g[a][i] b_a.

    Returns the new algebra and g^-1, which maps standard coordinates to
    coordinates on the new basis."""
    p, n = l.field.p, l.dim
    table = modp.Table(json.loads(to_json(l)))
    g, g_inv = modp.random_invertible(n, p, rng)
    cols = [[g[a][i] for a in range(n)] for i in range(n)]
    new = {}
    for i in range(n):
        for j in range(i + 1, n):
            coords = modp.mat_vec(g_inv, table.bracket(cols[i], cols[j]), p)
            terms = [(k, c) for k, c in enumerate(coords) if c]
            if terms:
                new[(i, j)] = terms
    return LieAlgebra(l.field, [f"c{i + 1}" for i in range(n)], new), g_inv


def matrix_coords(names, m, p):
    """Coordinates of a trace-zero n x n matrix on the E_ij / H_k basis,
    read from the basis names of an sl_n file."""
    out = []
    for name in names:
        if name[0] == "E":
            out.append(m[int(name[1]) - 1][int(name[2]) - 1] % p)
        else:
            # H_k = E_kk - E_{k+1,k+1}: the coefficient is the k-th prefix
            # sum of the diagonal.
            k = int(name[1:])
            out.append(sum(m[t][t] for t in range(k)) % p)
    return out


def rank_one_nilpotent(n, p, rng, density):
    """g E_1n g^-1 for g drawn at the given density.

    ``sparse`` keeps g = 1; ``medium`` takes g as a product of n random
    transvections; ``dense`` draws g uniformly from GL_n."""
    e = [[int(i == 0 and j == n - 1) for j in range(n)] for i in range(n)]
    if density == "sparse":
        return e
    if density == "dense":
        g, g_inv = modp.random_invertible(n, p, rng)
    else:
        g = [[int(i == j) for j in range(n)] for i in range(n)]
        g_inv = [row[:] for row in g]
        for _ in range(n):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(1, p)
            # (1 + c E_ij)(1 - c E_ij) = 1, applied on the right of g and on
            # the left of g^-1.
            for row in g:
                row[j] = (row[j] + c * row[i]) % p
            g_inv[i] = [(x - c * y) % p for x, y in zip(g_inv[i], g_inv[j])]
    return modp.mat_mul(modp.mat_mul(g, e, p), g_inv, p)


def fmt(v, p):
    """Canonical coordinate text: residues over GF(p), "a/b" over Q."""
    return ",".join(str(c) if p else f"{c}/1" for c in v)


# Extremal non-sandwich seeds on the standard bases: -z^2 Dz for the Witt
# algebras, E_1n for sl_n, and a sandwich for the Heisenberg algebra (which
# has no other kind of nonzero element).
def seed_vector(name, l):
    if name in ("witt5", "wittext5"):
        return [0, 0, 4] + [0] * (l.dim - 3)
    if name == "heisenberg":
        return [1, 0, 0]
    n = int(name[2:])
    return [int(nm == f"E1{n}") for nm in l.names]


def algebra_file(inp, name, p, rng, rebased):
    """Write one algebra file; returns (path, coordinate map, algebra).

    A standard-basis file is written once and shared by all rounds."""
    if (name, p) not in inp.standard:
        l = standard(name, p)
        inp.standard[name, p] = inp.write(f"{name}_p{p}.json", to_json(l)), l
    path, l = inp.standard[name, p]
    if not rebased:
        return path, None, l
    l, to_new = rebase(l, rng)
    return inp.write(f"{name}_p{p}_basis{inp.round}.json", to_json(l)), to_new, l


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (name, p, expected outcome, weight on the standard basis, weight on a
# random basis).  Outcomes: ExtremalGenerated and WittExceptional are
# verdicts (exit 0); not_simple and not_extremal are exit-1 refusals;
# undecidable is the exit-2 answer where simplicity cannot be certified.
# The weights put the median in the middle of the 42 witt5-rebased and
# sl3/Q jobs (about 11 ms) and the 90th percentile in the middle of the 14
# sl4/F5 standard-basis jobs, so neither sits on a gap between job sizes.
# sl5/F7 on a random basis is left out: see meta.json.
CLASSIFY_CASES = (
    ("witt5", 5, "WittExceptional", 33, 40),
    ("sl3", 7, "ExtremalGenerated", 4, 4),
    ("sl3", 11, "ExtremalGenerated", 4, 4),
    ("sl3", 13, "ExtremalGenerated", 4, 4),
    ("sl4", 5, "ExtremalGenerated", 14, 2),
    ("sl4", 7, "ExtremalGenerated", 2, 2),
    ("sl5", 7, "ExtremalGenerated", 1, 0),
    ("wittext5", 5, "not_simple", 4, 4),
    ("heisenberg", 5, "not_extremal", 4, 4),
    ("sl5", 5, "not_simple", 2, 2),
    ("sl3", 0, "undecidable", 2, 0),
)


def gen_classify_certified(inp, rng):
    for name, p, expect, *weights in CLASSIFY_CASES:
        for rebased, weight in zip((False, True), weights):
            if not weight:
                continue
            path, to_new, l = algebra_file(inp, name, p, rng, rebased)
            x = seed_vector(name, inp.standard[name, p][1])
            if to_new is not None:
                x = modp.mat_vec(to_new, x, p)
            inp.add(weight, kind="classify", argv=["classify", path, "--x", fmt(x, p)],
                    file=path, x=x, expect=expect, mode="certified",
                    label=f"{name}/F{p}" + ("/rebased" if rebased else ""))


# (name, p, densities of X): each algebra is checked once and classified
# once per density.
PIPELINE_CASES = (
    ("sl5", 7, ("sparse", "medium", "dense")), ("sl5", 11, ("sparse", "dense")),
    ("sl6", 7, ("sparse", "dense")), ("sl6", 11, ("sparse", "medium")),
    ("sl7", 7, ("sparse",)),
)
WITT_PIPELINE_WEIGHT = 30


def gen_pipeline_assumed(inp, rng):
    witt = "witt5"
    path, _, l = algebra_file(inp, witt, 5, rng, False)
    inp.add(WITT_PIPELINE_WEIGHT, kind="check", argv=["check", path], file=path, label="witt5/F5")
    x = seed_vector(witt, l)
    inp.add(WITT_PIPELINE_WEIGHT, kind="classify",
            argv=["classify", path, "--x", fmt(x, 5), "--assume-simple"],
            file=path, x=x, expect="WittExceptional", mode="assumed", label="witt5/F5")
    for name, p, densities in PIPELINE_CASES:
        path, _, l = algebra_file(inp, name, p, rng, False)
        n = int(name[2:])
        inp.add(1, kind="check", argv=["check", path], file=path, label=f"{name}/F{p}")
        for density in densities:
            x = matrix_coords(l.names, rank_one_nilpotent(n, p, rng, density), p)
            inp.add(1, kind="classify",
                    argv=["classify", path, "--x", fmt(x, p), "--assume-simple"],
                    file=path, x=x, expect="ExtremalGenerated", mode="assumed",
                    label=f"{name}/F{p}/{density}")


# (name, p, weight on the standard basis, weight on a random basis).  The
# 60 sl2/F7 scans (about 35 ms) hold the 90th percentile of the
# assumed-scan-cert cycle; wittext5 (15,624 vectors, about 4 s) runs once,
# on a random basis, and sl2/F17 and F19 on the standard basis only, to
# keep the cycle near 20 s.
SCAN_CASES = (
    ("sl2", 5, 20, 20), ("sl2", 7, 30, 30), ("sl2", 11, 1, 1), ("sl2", 13, 1, 1),
    ("sl2", 17, 1, 0), ("sl2", 19, 1, 0), ("witt5", 5, 1, 1), ("wittext5", 5, 0, 1),
)


def gen_scan_exhaustive(inp, rng):
    for name, p, *weights in SCAN_CASES:
        for rebased, weight in zip((False, True), weights):
            if not weight:
                continue
            path, _, l = algebra_file(inp, name, p, rng, rebased)
            inp.add(weight, kind="scan", argv=["extremal", path, "--exhaustive"],
                    file=path, name=name, p=p, dim=l.dim,
                    label=f"{name}/F{p}" + ("/rebased" if rebased else ""))


# ---------------------------------------------------------------------------
# certificate scripts
# ---------------------------------------------------------------------------

SHIPPED_CERTS = ("lemma22.cert", "prop32.cert", "thm23_span.cert")


def rule_set(name, alphabet):
    """Rules and the relators they come from: "thm23" is the rule set of
    thm23_span.cert, "square_zero" the rules s^2 -> 0."""
    if name == "thm23":
        rules = ["X^2 -> 0", "Y^2 -> 0", "X*Y*X -> X", "Y*X*Y -> Y"]
        relators = [{("X", "X"): 1}, {("Y", "Y"): 1},
                    {("X", "Y", "X"): 1, ("X",): -1}, {("Y", "X", "Y"): 1, ("Y",): -1}]
        return rules, relators
    return [f"{s}^2 -> 0" for s in alphabet], [{(s, s): 1} for s in alphabet]


def word_text(w):
    return "*".join(w) if w else "1"


def poly_text(terms, p):
    """Script syntax for {word: coeff} over GF(p), or over Q when p = 0."""
    parts = []
    for w, c in sorted(terms.items(), key=lambda it: (len(it[0]), it[0])):
        c = oracle.canon(c, p)
        neg = p == 0 and c < 0
        c = -c if neg else c
        body = word_text(w)
        chunk = body if c == 1 and w else (f"{c}*{body}" if w else f"{c}")
        parts.append(("- " if neg else "+ ") + chunk)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def random_word(rng, alphabet, max_len):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_coeff(rng, p):
    if p == 0 and rng.random() < 0.3:
        return Fraction(rng.randint(1, 9), rng.choice((2, 3, 5, 7)))
    return Fraction(rng.randint(1, 9))


def random_combination(rng, alphabet, relators, p):
    """A random sum of u*R*v over relators R plus a random polynomial.

    Returns the script expression and its expansion as {word: coeff}."""
    pieces = []
    terms = {}
    for _ in range(rng.randint(1, 4)):
        rel = rng.choice(relators)
        u, v = random_word(rng, alphabet, 3), random_word(rng, alphabet, 3)
        c = random_coeff(rng, p)
        pieces.append(f"{poly_text({(): c}, p)}*{word_text(u)}*({poly_text(rel, p)})*{word_text(v)}")
        for w, d in rel.items():
            key = u + w + v
            terms[key] = terms.get(key, 0) + c * d
    rest = {}
    for _ in range(rng.randint(1, 5)):
        w = random_word(rng, alphabet, 5)
        rest[w] = rest.get(w, 0) + random_coeff(rng, p)
    for w, c in rest.items():
        terms[w] = terms.get(w, 0) + c
    return " + ".join(pieces + [f"({poly_text(rest, p)})"]), terms


def cert_script(inp, name, alphabet, rules_name, p, rng, span=None):
    """Write a script of random reduce assertions (and one span assertion);
    returns its path and the oracle's normal form for each reduce."""
    rules, relators = rule_set(rules_name, alphabet)
    lines = [f"symbols {' '.join(alphabet)}", "char not in {2, 3}"]
    lines += [f"rule {r}" for r in rules]
    expected = []
    for _ in range(rng.randint(1, 4)):
        expr, terms = random_combination(rng, alphabet, relators, p)
        nf = oracle.normal_form(terms, p, rules_name)
        expected.append(nf)
        lines.append(f"assert reduce({expr}) == {poly_text(nf, p)}")
    if span is not None:
        lines += span_expectation(alphabet, span)
    return inp.write(f"{name}_round{inp.round}.cert", "\n".join(lines) + "\n"), expected


def span_expectation(alphabet, degree):
    """``assert span(d) == ...`` listing every alternating word.

    The words are built level by level with let bindings (A3X is the sum of
    the alternating words of length 3 ending in X), so the script stays
    short and parsing it stays linear in the number of words."""
    lines = [f"let A1{s} = {s}" for s in alphabet]
    for k in range(2, degree + 1):
        for s in alphabet:
            prev = " + ".join(f"A{k - 1}{t}" for t in alphabet if t != s)
            lines.append(f"let A{k}{s} = ({prev})*{s}")
    total = " + ".join(f"A{k}{s}" for k in range(1, degree + 1) for s in alphabet)
    return lines + [f"assert span({degree}) == 1 + {total}"]


# Characteristics of the thm23 combination scripts (0 is the rationals).
THM23_CHARS = (0, 5, 7, 11, 13, 0)
CERT_WEIGHT = 40        # each shipped script and each thm23 script
# (symbols, span degree, weight).  The 2-5 ms jobs hold the median of the
# assumed-scan-cert cycle; the 3-symbol spans above degree 6 run once.
SPAN_CASES = (
    ("XY", 4, 20), ("XY", 8, 20), ("XY", 12, 16),
    ("XYZ", 3, 20), ("XYZ", 6, 6), ("XYZ", 9, 1), ("XYZ", 10, 1), ("XYZ", 12, 1),
)


def gen_cert_replay(inp, rng):
    for name in SHIPPED_CERTS:
        inp.add(CERT_WEIGHT, kind="cert", argv=["cert", name], shipped=name, label=name)
    for k, p in enumerate(THM23_CHARS):
        path, expected = cert_script(inp, f"thm23_{k}", ("X", "Y"), "thm23", p, rng)
        inp.add(CERT_WEIGHT, kind="cert", argv=["cert", path, "-p", str(p)], p=p, expected=expected,
                label=f"thm23 combinations/F{p}")
    for symbols, degree, weight in SPAN_CASES:
        path, expected = cert_script(inp, f"span_{symbols}_{degree}", tuple(symbols),
                                     "square_zero", 0, rng, span=degree)
        inp.add(weight, kind="cert", argv=["cert", path], p=0, expected=expected,
                span=[len(symbols), degree], label=f"span({degree}) over {len(symbols)} symbols")


def gen_assumed_scan_cert(inp, rng):
    """Everything that bypasses the simplicity certificate."""
    gen_pipeline_assumed(inp, rng)
    gen_scan_exhaustive(inp, rng)
    gen_cert_replay(inp, rng)


GENERATORS = {
    "classify-certified": gen_classify_certified,
    "assumed-scan-cert": gen_assumed_scan_cert,
}
