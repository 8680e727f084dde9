"""Structure-constant Lie algebras over an exact field.

An algebra is a sparse tensor ``[b_i, b_j] = sum_k c * b_k``, given for
``i < j`` and stored once in both orders; antisymmetry is structural.  The
module also provides the span machinery built on top of the bracket
(subalgebra and ideal closures, center, derived algebra, simplicity checks,
quotients), the builtin test algebras, and the canonical JSON file format.
"""

from __future__ import annotations

import json
import random
from itertools import combinations, product
from typing import NamedTuple

from .errors import (
    CapabilityError,
    DomainError,
    InvarianceError,
    ParseError,
    ShapeError,
)
from .fields import Field
from .linalg import (
    GrowingSpan,
    Matrix,
    Subspace,
    _charpoly,
    _nilpotent_pattern,
    _poly_eval,
    _roots,
    _span,
    kernel,
    unit_vec,
    vec_combine,
    vec_is_zero,
    zero_vec,
)

MEATAXE_LINE_BUDGET = 4096         # most kernel lines meataxe_simple will close
DIM_LIMIT = 64                     # largest dim an algebra file may declare
SIMPLICITY_SEED = 0


class LieAlgebra:
    """Finite-dimensional algebra given by structure constants.

    ``table`` maps ``(i, j)`` with ``i < j`` to a tuple of ``(k, coeff)``
    terms sorted by ``k``; absent pairs bracket to zero.  ``_rows[i]`` maps
    each ``j`` with a nonzero [b_i, b_j] to its terms, in both orders, so
    the i > j half is negated once, here.  Instances are
    immutable; the Jacobi identity is checked by :meth:`validate`, not at
    construction, so that broken tensors can be loaded and reported on.

    :meth:`ad` keeps the last ``2 * dim`` matrices it built, keyed by
    operand and the oldest dropped first, so the pipeline builds each
    adjoint it repeats once; like the nonzero columns a ``Matrix`` lists,
    this cache is not part of the value.
    """

    __slots__ = ("field", "names", "table", "_rows", "_ads")

    def __init__(self, field: Field, names, table):
        self.field = field
        self.names = tuple(str(n) for n in names)
        n = len(self.names)
        if n < 1:
            raise ShapeError("algebra dimension must be at least 1")
        # Each sum is reduced once, and a nonzero residue c has the
        # canonical negative p - c.
        p, zero, of = field.p, field.zero, field.of
        canon = {}
        for (i, j), terms in table.items():
            if not (0 <= i < j < n):
                raise ShapeError(f"bad basis pair ({i}, {j}) for dimension {n}")
            acc = {}
            for k, c in terms:
                if not 0 <= k < n:
                    raise ShapeError(f"bad target index {k} for dimension {n}")
                acc[k] = acc.get(k, zero) + of(c)
            if p:
                cleaned = tuple([(k, r) for k, c in sorted(acc.items()) if (r := c % p)])
            else:
                cleaned = tuple([(k, c) for k, c in sorted(acc.items()) if c])
            if cleaned:
                canon[(i, j)] = cleaned
        self.table = canon
        rows = [{} for _ in range(n)]
        for (i, j), terms in sorted(canon.items()):
            rows[i][j] = terms
            rows[j][i] = tuple([(k, p - c) if p else (k, -c) for k, c in terms])
        self._rows = rows
        self._ads = {}

    @property
    def dim(self) -> int:
        return len(self.names)

    def __repr__(self):
        return f"LieAlgebra(dim {self.dim} over {self.field!r})"

    def zero(self):
        return zero_vec(self.field, self.dim)

    def basis_vector(self, i: int):
        return unit_vec(self.field, self.dim, i)

    def check_vector(self, v):
        if len(v) != self.dim:
            raise ShapeError(f"vector of length {len(v)} in a {self.dim}-dimensional algebra")
        return tuple(self.field.of(c) for c in v)

    def bracket(self, u, v):
        """[u, v], bilinear extension of the structure tensor."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ShapeError("bracket operands must match the algebra dimension")
        f = self.field
        out = [f.zero] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, terms in self._rows[i].items():
                vj = v[j]
                if vj:
                    s = ui * vj
                    for k, c in terms:
                        out[k] += s * c
        return f.reduce(out)

    def ad(self, x) -> Matrix:
        """Matrix of ad_x = [x, .]: column j is sum_i x_i [b_i, b_j].  Like
        :meth:`bracket`, it takes field elements as they are."""
        f, n = self.field, self.dim
        if len(x) != n:
            raise ShapeError(f"vector of length {len(x)} in a {n}-dimensional algebra")
        key = tuple(x)
        m = self._ads.get(key)
        if m is not None:
            return m
        data = [[f.zero] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, terms in self._rows[i].items():
                for k, c in terms:
                    data[k][j] += xi * c
        m = Matrix(f, n, n, tuple(map(f.reduce, data)))
        if len(self._ads) >= 2 * n:
            del self._ads[next(iter(self._ads))]
        self._ads[key] = m
        return m

    def validate(self) -> "ValidationReport":
        """Exhaustive Jacobi check over all basis triples i < j < k, read
        from the stored constants: [[b_a, b_b], b_c] = sum_m c_ab^m [b_m, b_c]."""
        f, rows = self.field, self._rows
        violations = []
        for i, j, k in combinations(range(self.dim), 3):
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, s in rows[a].get(b, ()):
                    for t, d in rows[m].get(c, ()):
                        acc[t] = acc.get(t, f.zero) + s * d
            if acc and any(f.reduce(acc.values())):
                violations.append((i, j, k))
        return ValidationReport(tuple(violations))


class ValidationReport(NamedTuple):
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


class SimplicityVerdict(NamedTuple):
    """An exact simplicity answer; a negative one names a proper ideal
    unless the algebra is abelian."""

    simple: bool
    detail: str
    witness_ideal: "Subspace | None" = None


def subalgebra_closure(l: LieAlgebra, gens) -> Subspace:
    """Smallest subspace containing ``gens`` and closed under the bracket:
    the closure of ``gens`` under every ad(g), g in ``gens``.

    By the Jacobi identity [[a, b], c] = [a, [b, c]] - [b, [a, c]], so every
    bracket of generators is a sum of right-normed ones [g1, [g2, ..., gk]],
    and these are exactly the images of the generators under words in the
    ad(g)."""
    vecs = [l.check_vector(g) for g in gens]
    actions = [l.ad(v).apply for v in vecs]
    return GrowingSpan(l.field, l.dim)._close(actions, vecs).to_subspace()


def _basis_actions(l: LieAlgebra, dual: bool = False) -> list:
    """The map v -> ad(b_i) v for every basis vector, in index order, read
    from the stored constants c_ij^k of [b_i, b_j] = sum_k c_ij^k b_k with
    no matrix built: ad(b_i) v = sum_j v_j [b_i, b_j].  With ``dual``, the
    transposes: ((ad b_i)^T phi)_j = sum_k c_ij^k phi_k."""
    f, n = l.field, l.dim
    zero, reduce = f.zero, f.reduce

    def adjoint(items):
        def act(v):
            out = [zero] * n
            for j, terms in items:
                vj = v[j]
                if vj:
                    for k, c in terms:
                        out[k] += vj * c
            return reduce(out)
        return act

    def coadjoint(items):
        def act(phi):
            out = [zero] * n
            for j, terms in items:
                acc = zero
                for k, c in terms:
                    phik = phi[k]
                    if phik:
                        acc += c * phik
                out[j] = acc
            return reduce(out)
        return act

    make = coadjoint if dual else adjoint
    return [make(tuple(row.items())) for row in l._rows]


def center(l: LieAlgebra) -> Subspace:
    """{v : [b_i, v] = 0 for all i}.  A candidate basis, at first that of
    all of L, is cut down to the kernel of one ad(b_i) at a time, so it
    always spans a space holding the centre; once every b_i has been
    checked it spans the centre.  Each cut eliminates the candidates'
    brackets with b_i one after another, each stored beside its candidate
    and carrying it along: a bracket that eliminates to zero leaves a
    combination of candidates in the kernel, and these span it.  The first
    cut reads the brackets, the columns of ad(b_i), off the stored
    constants.  The b_i with the most nonzero brackets go first, as they
    cut the most, and an empty candidate basis ends the search."""
    f, n = l.field, l.dim
    actions = _basis_actions(l)
    candidate = None
    for i in sorted(range(n), key=lambda i: -len(l._rows[i])):
        span = GrowingSpan(f, 2 * n)        # [b_i, v] beside v
        if candidate is None:
            row = l._rows[i]
            for j in range(n):
                pair = [f.zero] * (2 * n)
                for k, c in row.get(j, ()):
                    pair[k] = c
                pair[n + j] = f.one
                span.insert(pair)
        else:
            for v in candidate:
                span.insert(actions[i](v) + v)
        candidate = [r[n:] for c, r in span.rows.items() if c >= n]
        if not candidate:
            break
    return _span(f, n, candidate)


def derived(l: LieAlgebra) -> Subspace:
    """Span of the brackets of the basis pairs in the table, read from the
    stored constants; the search stops once the span is all of L."""
    f, n = l.field, l.dim
    span = GrowingSpan(f, n)
    for terms in l.table.values():
        v = [f.zero] * n
        for k, c in terms:
            v[k] = c
        span.insert(v)
        if span.dim == n:
            break
    return span.to_subspace()


EXHAUSTIVE_LIMIT = 10**7    # largest p^n whose lines is_simple or exhaustive_scan enumerates


def _projective_representatives(field: Field, n: int):
    """One vector per projective point: first nonzero coordinate equals 1.

    For each leading position the coordinates after it run with the nearest
    one fastest."""
    for lead in range(n):
        head = (field.zero,) * lead + (field.one,)
        for tail in product(field.elements(), repeat=n - lead - 1):
            yield head + tail[::-1]


def _line_representatives(field, basis):
    """One vector per line of the span of the given independent rows."""
    for coeffs in _projective_representatives(field, len(basis)):
        yield vec_combine(field, coeffs, basis)


def _structural_verdict(l: LieAlgebra) -> "SimplicityVerdict | None":
    """The exact negative verdicts read off the centre and the derived
    algebra, or None when both leave simplicity open."""
    c = center(l)
    if c.dim == l.dim:
        return SimplicityVerdict(False, "abelian algebra", None)
    if c.dim > 0:
        return SimplicityVerdict(False, "nonzero center", c)
    d = derived(l)
    if d.dim < l.dim:
        return SimplicityVerdict(False, "derived algebra is proper", d)
    return None


def _first_proper_closure(l: LieAlgebra, actions, vectors) -> "Subspace | None":
    """Closure under ``actions`` of the first of ``vectors`` whose closure
    is a proper subspace of F^dim, or None when every one fills the space."""
    for v in vectors:
        span = GrowingSpan(l.field, l.dim)._close(actions, [v])
        if span.dim < l.dim:
            return span.to_subspace()
    return None


def is_simple(l: LieAlgebra) -> SimplicityVerdict:
    """Exact simplicity test by enumeration, the reference for
    :func:`meataxe_simple`: one generator per projective point, over finite
    fields with p^n <= 10^7 only."""
    verdict = _structural_verdict(l)
    if verdict is not None:
        return verdict
    f = l.field
    if f.p == 0:
        raise CapabilityError(
            "certified simplicity needs a finite field; rerun with assume_simple")
    if f.p ** l.dim > EXHAUSTIVE_LIMIT:
        raise CapabilityError(
            f"certified simplicity limited to p^n <= {EXHAUSTIVE_LIMIT}; "
            "rerun with assume_simple")
    ideal = _first_proper_closure(l, _basis_actions(l), _projective_representatives(f, l.dim))
    if ideal is not None:
        return SimplicityVerdict(False, "proper ideal found", ideal)
    return SimplicityVerdict(True, "every projective point generates", None)


def meataxe_simple(l: LieAlgebra) -> SimplicityVerdict:
    """Exact simplicity certificate via invariant-subspace analysis.

    Ideals are exactly the submodules of the adjoint module.  For a singular
    operator t in the enveloping algebra, any proper submodule W either
    meets ker t or its annihilator meets ker t^T (otherwise t would be
    injective on W, forcing W inside im t and the annihilator of im t + W to
    vanish, a contradiction).  So when every line of ker t generates the
    whole module and every line of ker t^T generates the dual, no proper
    nonzero ideal exists.  The identity lies in the unital enveloping
    algebra, so t = ad(x) - lambda*1 serves as well as ad(x) when lambda is
    an eigenvalue of ad(x) in F_p, and on sl_n some shift usually reaches
    nullity 1.  Negative answers always come with a concrete witness ideal.
    The closures need only the module action, which they read from the
    stored constants (:func:`_basis_actions`), and the search for t reads
    a nilpotent pattern of ad(b_i) off them too, so a dense ad(x) is built
    only for a candidate whose characteristic polynomial the search takes
    (on sl_n, H1 alone) or whose kernel it needs.  Much faster than
    the projective-point enumeration of :func:`is_simple`, and used by the
    classification pipeline; the two are cross-checked in the test suite.
    """
    if l.field.p == 0:
        raise CapabilityError("simplicity is only certified over finite fields")
    verdict = _structural_verdict(l)
    if verdict is not None:
        return verdict
    no_operator = ("no singular operator with a small enough kernel was found; "
                   "fall back to exhaustive checking")
    if MEATAXE_LINE_BUDGET < 1:
        raise CapabilityError(no_operator)

    f = l.field
    rng = random.Random(SIMPLICITY_SEED)
    samples = (tuple(f.random(rng) for _ in range(l.dim)) for _ in range(24))

    def candidates():
        """Each candidate x with ad(x), its eigenvalues in F_p, in
        increasing order, and those that are roots of exactly one of its
        Hessenberg blocks; ad(x) is built only when the walk reaches x and
        needs chi.  Where the stored row of b_i shows ad(b_i) nilpotent with
        two zero columns or more, chi = x^n and 0 lies in two blocks or
        more, since each unreduced block has nullity at most 1; ad(b_i) is
        left unbuilt.  A random sample always takes chi, which gives the
        same roots for such a pattern."""
        for i, row in enumerate(l._rows):
            x = l.basis_vector(i)
            if _nilpotent_pattern(l.dim, row):
                yield x, None, [f.zero], []
            else:
                yield (x,) + shifts(l.ad(x))
        for x in samples:
            if not vec_is_zero(x):
                yield (x,) + shifts(l.ad(x))

    def shifts(theta):
        chi, blocks = _charpoly(theta)
        roots = _roots(f, chi)
        return theta, roots, [lam for lam in roots
                              if sum(not _poly_eval(f, b, lam) for b in blocks) == 1]

    def lines_of(nullity):
        return (f.p**nullity - 1) // (f.p - 1)

    # A root of exactly one block has nullity 1, so the first one found is
    # the only kernel computed; the per-root search below serves when no
    # candidate has one, as over a quadratic extension.  An earlier shift of
    # nullity 1 whose root lies in two blocks is passed over, so the witness
    # of a non-simple algebra can differ from the per-root search's.
    walked, best = [], None
    for x, theta, roots, single in candidates():
        if single:
            t = theta.add_scalar_diag(f.neg(single[0]))
            best = (t, kernel(t))
            break
        walked.append((x, theta, roots))
    if best is None:
        shifted = ((l.ad(x) if theta is None else theta).add_scalar_diag(f.neg(lam))
                   for x, theta, roots in walked for lam in roots)
        for t in shifted:
            ker = kernel(t)
            if ker.dim == 0 or lines_of(ker.dim) > MEATAXE_LINE_BUDGET:
                continue
            if best is None or ker.dim < best[1].dim:
                best = (t, ker)
            if ker.dim == 1:
                break
    if best is None:
        raise CapabilityError(no_operator)
    theta, ker = best
    witness = _first_proper_closure(l, _basis_actions(l), _line_representatives(f, ker.basis))
    if witness is None:
        dual = _first_proper_closure(l, _basis_actions(l, dual=True),
                                     _line_representatives(f, kernel(theta.transpose()).basis))
        if dual is None:
            return SimplicityVerdict(
                True,
                f"kernel lines of a nullity-{ker.dim} operator generate the module and its dual",
                None)
        # The annihilator of the dual submodule is a proper nonzero ideal.
        witness = kernel(Matrix.from_rows(f, dual.basis))
    return SimplicityVerdict(False, "proper ideal found", witness)


def complement_indices(s: Subspace):
    """Standard basis indices completing ``s`` to the whole space."""
    pivots = set(s.pivots)
    return tuple(i for i in range(s.ambient) if i not in pivots)


def quotient_action(l: LieAlgebra, s: Subspace, actors) -> list:
    """Matrices of the induced actions on L/s.

    The complement basis is fixed as the standard basis vectors outside the
    pivot columns of ``s``, in index order, so results are deterministic.
    Each actor must preserve ``s``.
    """
    if s.ambient != l.dim:
        raise ShapeError("subspace ambient dimension does not match the algebra")
    comp = complement_indices(s)
    out = []
    for a in actors:
        m = l.ad(l.check_vector(a))
        if not all(s.contains(m.apply(row)) for row in s.basis):
            raise InvarianceError("actor does not preserve the subspace")
        cols = m.transpose().data
        reduced = [s.reduce(cols[j]) for j in comp]
        out.append(Matrix.from_columns(l.field, [tuple(r[c] for c in comp) for r in reduced]))
    return out


def quotient_algebra(l: LieAlgebra, s: Subspace) -> LieAlgebra:
    """Quotient of ``l`` by an ideal ``s``, on the complement basis: column
    b of the quotient action of complement vector a holds the bracket of a
    and b."""
    comp = complement_indices(s)
    actions = quotient_action(l, s, [l.basis_vector(i) for i in range(l.dim)])
    table = {}
    for a, ca in enumerate(comp):
        m = actions[ca]
        for b in range(a + 1, len(comp)):
            terms = [(k, m.data[k][b]) for k in range(len(comp)) if m.data[k][b]]
            if terms:
                table[(a, b)] = terms
    return LieAlgebra(l.field, [l.names[c] for c in comp], table)


# ---------------------------------------------------------------------------
# builtin algebras
# ---------------------------------------------------------------------------

BUILTIN_NAMES = ("sl2", "sl3", "sl4", "witt5", "wittext5", "heisenberg")


def builtin(name: str, p: int) -> LieAlgebra:
    """Construct a builtin algebra over GF(p) (or the rationals for p = 0)."""
    if name not in BUILTIN_NAMES:
        raise CapabilityError(f"unknown builtin {name!r}; know {', '.join(BUILTIN_NAMES)}")
    if p in (2, 3):
        raise CapabilityError("builtin algebras are not provided in characteristic 2 or 3")
    field = Field(p)
    if name in ("witt5", "wittext5"):
        if p != 5:
            raise CapabilityError(f"{name} exists only in characteristic 5")
        return _witt(field, extended=(name == "wittext5"))
    if name == "sl2":                 # e, f, h = E12, E21, H1
        return LieAlgebra(field, ("e", "f", "h"), _sl(field, 2).table)
    if name == "heisenberg":
        return LieAlgebra(field, ("a", "b", "c"), {(0, 1): [(2, 1)]})
    n = 3 if name == "sl3" else 4
    return _sl(field, n)


def _witt(field: Field, extended: bool) -> LieAlgebra:
    # Derivation basis z^i d/dz; powers outside the allowed exponent set
    # vanish.  The extension adds the exponent 6 and nothing else.
    exps = [0, 1, 2, 3, 4] + ([6] if extended else [])
    pos = {e: i for i, e in enumerate(exps)}
    names = tuple("Dz" if e == 0 else ("z*Dz" if e == 1 else f"z^{e}*Dz") for e in exps)
    table = {}
    for a in range(len(exps)):
        for b in range(a + 1, len(exps)):
            i, j = exps[a], exps[b]
            k = i + j - 1
            if k in pos:
                table[(a, b)] = [(pos[k], j - i)]
    return LieAlgebra(field, names, table)


def _sl(field: Field, n: int) -> LieAlgebra:
    # Basis: E_ij for i<j, then E_ij for i>j (both in lexicographic order),
    # then the Cartan elements H_k = E_kk - E_{k+1,k+1}.  Each bracket is read
    # off [E_ij, E_kl] = d_jk E_il - d_li E_kj, with E_ii - E_jj = H_i + ...
    # + H_{j-1} for i < j and [E_ij, H_k] = -(e_i - e_j)(H_k) E_ij.
    offdiag = [(i, j) for i in range(n) for j in range(n) if i < j]
    offdiag += [(i, j) for i in range(n) for j in range(n) if i > j]
    names = [f"E{i + 1}{j + 1}" for i, j in offdiag] + [f"H{k + 1}" for k in range(n - 1)]
    index = {ij: a for a, ij in enumerate(offdiag)}
    cartan = len(offdiag)
    table = {}
    for a, (i, j) in enumerate(offdiag):
        for b in range(a + 1, cartan):
            k, l = offdiag[b]
            if (k, l) == (j, i):      # i < j: the upper E_ij comes first
                table[(a, b)] = [(cartan + m, 1) for m in range(i, j)]
            elif j == k:
                table[(a, b)] = [(index[(i, l)], 1)]
            elif l == i:
                table[(a, b)] = [(index[(k, j)], -1)]
        for m in range(n - 1):
            table[(a, cartan + m)] = [(a, (i == m + 1) - (i == m) + (j == m) - (j == m + 1))]
    return LieAlgebra(field, names, table)


# ---------------------------------------------------------------------------
# canonical file format
# ---------------------------------------------------------------------------

def to_json_dict(l: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(l.table):
        brackets.append({
            "i": i,
            "j": j,
            "terms": [[k, l.field.format(c)] for k, c in l.table[(i, j)]],
        })
    return {
        "characteristic": l.field.p,
        "dim": l.dim,
        "basis": list(l.names),
        "brackets": brackets,
    }


def to_json(l: LieAlgebra) -> str:
    return json.dumps(to_json_dict(l), indent=2) + "\n"


def from_json(text: str) -> LieAlgebra:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also too deep, or too many digits
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("algebra file must be a JSON object")
    for key in ("characteristic", "dim", "basis", "brackets"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    p = doc["characteristic"]
    if type(p) is not int:     # true and false load as bool, a subclass of int
        raise ParseError("characteristic must be an integer")
    try:
        field = Field(p)
    except DomainError as e:
        raise ParseError(str(e)) from None
    n = doc["dim"]
    if type(n) is not int or n < 1:
        raise ParseError("dim must be a positive integer")
    if n > DIM_LIMIT:
        raise ParseError(f"dim {n} exceeds the limit of {DIM_LIMIT}")
    basis = doc["basis"]
    if not isinstance(basis, list) or len(basis) != n or not all(isinstance(b, str) for b in basis):
        raise ParseError("basis must be a list of dim strings")
    table = {}
    if not isinstance(doc["brackets"], list):
        raise ParseError("brackets must be a list")
    # JSON values load as exactly dict, list, str, int, float, bool or None,
    # so the shapes are tested with ``type(...) is``; each distinct coefficient
    # text is parsed once, and only accepted nonzero values are kept.
    parsed, keys = {}, {"i", "j", "terms"}
    for entry in doc["brackets"]:
        if type(entry) is not dict or entry.keys() != keys:
            raise ParseError('each bracket needs exactly the keys "i", "j", "terms"')
        i, j = entry["i"], entry["j"]
        if not (type(i) is int and type(j) is int):
            raise ParseError("bracket indices must be integers")
        if i >= j:
            raise ParseError(f"bracket pair ({i}, {j}) must have i < j")
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"bracket pair ({i}, {j}) out of range for dim {n}")
        if (i, j) in table:
            raise ParseError(f"duplicate bracket pair ({i}, {j})")
        if type(entry["terms"]) is not list or not entry["terms"]:
            raise ParseError(f"terms of ({i}, {j}) must be a nonempty list")
        terms = {}
        for t in entry["terms"]:
            if type(t) is not list or len(t) != 2 or type(t[0]) is not int or type(t[1]) is not str:
                raise ParseError(f'terms of ({i}, {j}) must be [index, "coeff"] pairs')
            k, coeff = t
            if not 0 <= k < n:
                raise ParseError(f"term index {k} out of range for dim {n}")
            if k in terms:
                raise ParseError(f"duplicate term index {k} in bracket ({i}, {j})")
            c = parsed.get(coeff)
            if c is None:
                c = field.parse(coeff)
                if not c:
                    raise ParseError(f"zero coefficient stored in bracket ({i}, {j})")
                parsed[coeff] = c
            terms[k] = c
        table[(i, j)] = terms.items()
    return LieAlgebra(field, basis, table)


def parse_coords(field: Field, text: str, dim: int):
    """Comma-separated canonical coefficients -> vector."""
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != dim:
        raise ParseError(f"expected {dim} coordinates, got {len(parts)}")
    return tuple(field.parse(s) for s in parts)


def format_vector(field: Field, v) -> list:
    return [field.format(c) for c in v]
