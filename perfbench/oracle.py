"""Independent answer checks for benchmark jobs.

Nothing here imports lieext.  Brackets are evaluated with the plain mod-p
structure-constant table of ``modp``; rewrite normal forms come from a
faithful matrix representation or from the shape of the words.  A job is
correct when its exit code is the expected one and its report agrees with
these checks.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from modp import Table


def canon(c, p):
    """Scalar in canonical form: a residue over GF(p), a Fraction over Q."""
    if p == 0:
        return Fraction(c)
    c = Fraction(c)
    return c.numerator * pow(c.denominator, p - 2, p) % p


def parse_scalar(text, p):
    return canon(Fraction(text), p)


# ---------------------------------------------------------------------------
# rewrite normal forms
# ---------------------------------------------------------------------------

def alternating_words(alphabet, degree):
    """Words of length <= degree with no letter repeated back to back: the
    irreducible words when every rule is s^2 -> 0."""
    out = [()]
    level = [()]
    for _ in range(degree):
        level = [w + (s,) for w in level for s in alphabet if not w or w[-1] != s]
        out.extend(level)
    return out


def alternating_count(letters, degree):
    """Closed form for len(alternating_words): 2d+1 for two letters,
    1 + 3(2^d - 1) for three."""
    if letters == 2:
        return 2 * degree + 1
    return 1 + 3 * (2**degree - 1)


# X = E12, Y = E21 on F^2, direct sum with the zero representation on F;
# the image of a word is (2x2 matrix, scalar).  It is faithful on the
# quotient by X^2, Y^2, XYX - X, YXY - Y, whose normal words are 1, X, Y,
# XY, YX.
_UNIT = {"X": ((0, 1), (0, 0)), "Y": ((0, 0), (1, 0))}


def _word_image(w):
    if not w:
        return ((1, 0), (0, 1)), 1
    m = _UNIT[w[0]]
    for s in w[1:]:
        n = _UNIT[s]
        m = tuple(tuple(sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return m, 0


def normal_form(terms, p, rules):
    """Normal form of sum(c * w) under the "square_zero" or the "thm23"
    rules; returns {word: coeff}."""
    out = {}
    if rules == "square_zero":
        for w, c in terms.items():
            if all(a != b for a, b in zip(w, w[1:])):
                out[w] = out.get(w, 0) + Fraction(c)
    else:
        m = [[Fraction(0)] * 2 for _ in range(2)]
        s = Fraction(0)
        for w, c in terms.items():
            img, scalar = _word_image(w)
            for i in range(2):
                for j in range(2):
                    m[i][j] += c * img[i][j]
            s += c * scalar
        out = {(): s, ("X",): m[0][1], ("Y",): m[1][0],
               ("X", "Y"): m[0][0] - s, ("Y", "X"): m[1][1] - s}
    out = {w: canon(c, p) for w, c in out.items()}
    return {w: c for w, c in out.items() if c}


def parse_poly(text, p):
    """Read a polynomial as the program prints it: terms joined by ' + ' or
    ' - ', each ``coeff*word`` with runs written ``X^2``."""
    if text == "0":
        return {}
    out = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff = Fraction(1)
        if tok[0].isdigit():
            head, _, tok = tok.partition("*")
            coeff = Fraction(head)
        out[parse_word(tok)] = canon(sign * coeff, p)
        sign = 1
    return out


def parse_word(text):
    """``X^2*Y`` -> ("X", "X", "Y"); the empty word prints as 1 or nothing."""
    word = []
    for part in text.split("*") if text not in ("", "1") else ():
        sym, _, rep = part.partition("^")
        word.extend([sym] * (int(rep) if rep else 1))
    return tuple(word)


# ---------------------------------------------------------------------------
# job checks
# ---------------------------------------------------------------------------

# Exhaustive scans: sl2/F_p has p^2 - 1 extremal non-sandwich vectors and no
# sandwiches (the nonzero nilpotents); witt5 has 20 and 4, as the operator
# model in tests/test_extremal.py finds, and so does its central extension
# (element_kind over all 5^6 - 1 vectors of the builtin table).  A change of
# basis keeps the counts.
SCAN_COUNTS = {"witt5": (20, 4), "wittext5": (20, 4)}


class Oracle:
    def __init__(self, root):
        self.root = root
        self._tables = {}

    def table(self, path):
        if path not in self._tables:
            self._tables[path] = Table.load(os.path.join(self.root, path))
        return self._tables[path]

    def check(self, job, rc, out, err):
        """True when the job's exit code and report are right."""
        try:
            return getattr(self, "_" + job["kind"])(job, rc, out, err)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
            return False

    # -- Lie algebra jobs --------------------------------------------------

    def _check(self, job, rc, out, err):
        doc = json.loads(out)
        t = self.table(job["file"])
        return (rc == 0 and doc["valid"] is True and doc["violations"] == []
                and doc["dim"] == t.dim and doc["characteristic"] == t.p)

    def _classify(self, job, rc, out, err):
        expect = job["expect"]
        refusals = {"not_simple": (1, "the algebra is not simple (nonzero center)"),
                    "not_extremal": (1, "x must be extremal and not a sandwich"),
                    "undecidable": (2, "rerun with assume_simple")}
        if expect in refusals:
            code, phrase = refusals[expect]
            return rc == code and out == "" and phrase in err
        t = self.table(job["file"])
        doc = json.loads(out)
        vec = lambda v: [parse_scalar(c, t.p) for c in v]
        hyp = doc["hypotheses"]
        x, y, h = (vec(doc["triple"][k]) for k in ("x", "y", "h"))
        scale = lambda v, s: [s * c % t.p for c in v]
        ok = (rc == 0 and doc["verdict"] == expect
              and hyp["simplicity"]["mode"] == job["mode"]
              and hyp["dim"] == t.dim and hyp["characteristic"] == t.p
              and vec(hyp["x"]) == job["x"] and x == job["x"]
              and t.bracket(x, y) == h
              and t.bracket(h, x) == scale(x, 2)
              and t.bracket(h, y) == scale(y, -2))
        if not ok:
            return False
        if expect == "ExtremalGenerated":
            return doc["closure_dim"] == t.dim
        iso = doc["isomorphism"]
        v = vec(iso["spanning_set"]["v"])
        return (iso["target"] == "W" and iso["span_equals_algebra"] is True
                and t.bracket(y, t.bracket(y, v)) == x)

    def _scan(self, job, rc, out, err):
        doc = json.loads(out)
        t = self.table(job["file"])
        p = t.p
        if job["name"] == "sl2":
            ext, sand = p * p - 1, 0
        else:
            ext, sand = SCAN_COUNTS[job["name"]]
        total = p**t.dim - 1
        counts = doc["counts"]
        if rc != 0 or counts != {"not_extremal": total - ext - sand, "sandwich": sand,
                                 "extremal_nonsandwich": ext}:
            return False
        listed = {"extremal_nonsandwich": doc["extremal_nonsandwich"],
                  "sandwich": doc["sandwich"]}
        for kind, vectors in listed.items():
            vectors = [tuple(parse_scalar(c, p) for c in v) for v in vectors]
            if len(set(vectors)) != counts[kind]:
                return False
            for v in vectors:
                if element_kind(t, list(v)) != kind:
                    return False
        return True

    # -- certificate jobs ----------------------------------------------------

    def _cert(self, job, rc, out, err):
        doc = json.loads(out)
        asserts = doc["assertions"]
        if rc != 0 or doc["passed"] is not True or not all(a["ok"] for a in asserts):
            return False
        if "shipped" in job:
            path = os.path.join(self.root, "src", "lieext", "certs", job["shipped"])
            with open(path, encoding="utf-8") as fh:
                n = sum(1 for line in fh if line.startswith("assert"))
            return len(asserts) == n
        p = job["p"]
        reduces = [a for a in asserts if a["kind"] == "reduce"]
        if len(reduces) != len(job["expected"]):
            return False
        for a, nf in zip(reduces, job["expected"]):
            if parse_poly(a["value"], p) != nf:
                return False
        if "span" in job:
            letters, degree = job["span"]
            spans = [a for a in asserts if a["kind"] == "span"]
            words = [parse_word(w) for w in spans[0]["value"].split(" ")]
            alphabet = doc["symbols"]
            return (len(words) == alternating_count(letters, degree)
                    and set(words) == set(alternating_words(alphabet, degree)))
        return True


def element_kind(t, x):
    """Extremality of x by direct evaluation of [x, [x, b_j]] for every j."""
    p = t.p
    lead = next(i for i, c in enumerate(x) if c)
    inv = pow(x[lead], p - 2, p)
    sandwich = True
    for j in range(t.dim):
        b = [0] * t.dim
        b[j] = 1
        w = t.bracket(x, t.bracket(x, b))
        c = w[lead] * inv % p
        if any(wi != c * xi % p for wi, xi in zip(w, x)):
            return "not_extremal"
        sandwich = sandwich and c == 0
    return "sandwich" if sandwich else "extremal_nonsandwich"



def corrupt(job, out, err):
    """A well-formed but wrong copy of an accepted answer (oracle self-check)."""
    if not out:
        return out, "error: lost the reason for the refusal"
    doc = json.loads(out)
    kind = job["kind"]
    if kind == "check":
        doc["violations"] = [[0, 1, 2]]
    elif kind == "classify":
        h = doc["triple"]["h"]
        h[0] = str((int(h[0]) + 1) % doc["hypotheses"]["characteristic"])
    elif kind == "scan":
        doc["extremal_nonsandwich"].pop()
    else:
        doc["assertions"][-1]["ok"] = False
    return json.dumps(doc, indent=2) + "\n", err
