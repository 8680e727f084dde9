"""Dense exact linear algebra over a :class:`~lieext.fields.Field`.

Everything here is deliberately small: the algebras this package targets
have dimension well under a hundred, so plain Gaussian elimination is
enough.  One row reduction, :class:`GrowingSpan`, yields every echelon form,
subspace, kernel and solution; they are canonical because a row space has
exactly one reduced echelon basis.  Only a ``GrowingSpan`` is mutable.

Scalars are canonicalized at the boundary only: the public builders
``Matrix.from_rows``, ``Matrix.from_columns`` and ``Subspace.span`` take
anything :meth:`Field.of` takes; everything else, the ``Matrix`` constructor
included, takes field elements as they are.  Inside, the vector and matrix
products add and multiply with ``+`` and ``*`` and canonicalize once per
accumulated value, through :meth:`Field.reduce`; the eliminations reduce a
pivot entry when they read it.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from .errors import ShapeError
from .fields import Field

def vec_add(field: Field, u, v):
    return field.reduce([a + b for a, b in zip(u, v)])

def vec_sub(field: Field, u, v):
    return field.reduce([a - b for a, b in zip(u, v)])

def vec_scale(field: Field, c, u):
    return field.reduce([c * a for a in u])

def vec_combine(field: Field, coeffs, rows):
    """The linear combination sum c_i * rows[i]; ``rows`` must be nonempty."""
    acc = [field.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for i, a in enumerate(row):
                if a:
                    acc[i] += c * a
    return field.reduce(acc)

def vec_ratio(field: Field, w, x):
    """The scalar c with w = c * x for a nonzero x, or None if there is none."""
    lead = next(i for i, a in enumerate(x) if a)
    c = field.reduce_scalar(w[lead] * field.inv(x[lead]))
    return c if w == vec_scale(field, c, x) else None

def vec_is_zero(u) -> bool:
    return all(not a for a in u)

def zero_vec(field: Field, n):
    return (field.zero,) * n

def unit_vec(field: Field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


class Matrix:
    """Immutable dense matrix; ``data`` is a tuple of row tuples of field
    elements, which the constructor takes as they are.  The nonzero columns
    of each row are listed the first time :meth:`apply` reads them; they
    are a cache, not part of the value."""

    __slots__ = ("field", "rows", "cols", "data", "_nonzero")

    def __init__(self, field: Field, rows: int, cols: int, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeError(f"expected {rows}x{cols} data")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data
        self._nonzero = None

    @classmethod
    def from_rows(cls, field: Field, data) -> "Matrix":
        data = tuple(tuple(field.of(x) for x in row) for row in data)
        cols = len(data[0]) if data else 0
        return cls(field, len(data), cols, data)

    @classmethod
    def from_columns(cls, field: Field, columns) -> "Matrix":
        columns = tuple(tuple(field.of(x) for x in c) for c in columns)
        rows = len(columns[0]) if columns else 0
        return cls(field, rows, len(columns), tuple(tuple(c[i] for c in columns) for i in range(rows)))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)

    def transpose(self) -> "Matrix":
        # zip(*()) would lose the column count of a matrix with no rows
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix(self.field, self.cols, self.rows, data)

    def mul(self, other: "Matrix") -> "Matrix":
        self.field.require_same(other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        bt = other.transpose().data
        out = tuple(
            f.reduce([_dot(f, row, col) for col in bt])
            for row in self.data
        )
        return Matrix(f, self.rows, other.cols, out)

    def apply(self, vec) -> tuple:
        """Matrix times column vector, through the nonzero entries of each row."""
        if len(vec) != self.cols:
            raise ShapeError(f"vector of length {len(vec)} for {self.rows}x{self.cols} matrix")
        f = self.field
        if self._nonzero is None:
            columns = range(self.cols)
            self._nonzero = tuple([tuple(compress(columns, row)) for row in self.data])
        out = []
        for row, nonzero in zip(self.data, self._nonzero):
            acc = f.zero
            for j in nonzero:
                b = vec[j]
                if b:
                    acc += row[j] * b
            out.append(acc)
        return f.reduce(out)

    def add_scalar_diag(self, c) -> "Matrix":
        """self + c*I (square only)."""
        if self.rows != self.cols:
            raise ShapeError("diagonal shift needs a square matrix")
        f = self.field
        return Matrix(f, self.rows, self.cols, tuple(
            tuple(f.add(x, c) if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(self.data)
        ))


def _dot(field: Field, u, v):
    """The raw sum of products u_i v_i; callers canonicalize it."""
    acc = field.zero
    for a, b in zip(u, v):
        if a and b:
            acc += a * b
    return acc


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(echelon, rank, pivot_cols)``: the canonical basis of the row
    space from :class:`GrowingSpan`, padded with zero rows to the shape of
    ``m``.  A row space has exactly one reduced echelon basis, so the result
    does not depend on how it was reached.
    """
    g = GrowingSpan(m.field, m.cols)
    for row in m.data:
        g.insert(row)
    s = g.to_subspace()
    padding = (zero_vec(m.field, m.cols),) * (m.rows - s.dim)
    return Matrix(m.field, m.rows, m.cols, s.basis + padding), s.dim, s.pivots


def solve(a: Matrix, b):
    """One exact solution of ``a v = b``, or ``None`` when ``b`` is not in
    the column space.  Free variables are set to zero, which makes the
    returned solution deterministic."""
    if len(b) != a.rows:
        raise ShapeError(f"rhs of length {len(b)} for {a.rows}x{a.cols} matrix")
    f = a.field
    aug = Matrix(f, a.rows, a.cols + 1,
                 tuple(row + (bv,) for row, bv in zip(a.data, b)))
    ech, rank, pivots = rref(aug)
    if pivots and pivots[-1] == a.cols:
        return None
    v = [f.zero] * a.cols
    for r, c in enumerate(pivots):
        v[c] = ech.data[r][a.cols]
    return tuple(v)


def kernel(a: Matrix) -> "Subspace":
    """Null space of ``a`` as a canonical subspace of F^cols.

    The rows are eliminated with their columns reversed.  Reversed, the
    vector of a free column c has a one at c and its other entries at pivot
    columns before c; mapped back, those entries come after c, and no other
    such vector has an entry at c.  So the vectors, taken by their free
    columns in increasing order, are the kernel's reduced echelon basis."""
    f, n = a.field, a.cols
    g = GrowingSpan(f, n)
    for row in a.data:
        g.insert(row[::-1])
    ech = g.to_subspace()
    pivot_set = set(ech.pivots)
    basis, pivots = [], []
    for c in range(n - 1, -1, -1):
        if c in pivot_set:
            continue
        v = [f.zero] * n
        v[n - 1 - c] = f.one
        for row, pc in zip(ech.basis, ech.pivots):
            if row[c]:
                v[n - 1 - pc] = f.neg(row[c])
        basis.append(v)
        pivots.append(n - 1 - c)
    return Subspace(f, n, basis, pivots)


def eigenspace(a: Matrix, lam) -> "Subspace":
    """Eigenspace of a square matrix at eigenvalue ``lam`` (possibly zero)."""
    if a.rows != a.cols:
        raise ShapeError("eigenspace needs a square matrix")
    return kernel(a.add_scalar_diag(a.field.neg(lam)))


def _charpoly(a: Matrix):
    """det(x*1 - a) and its factors, the characteristic polynomials of the
    unreduced diagonal blocks of an upper Hessenberg conjugate h of ``a``,
    each a coefficient list, lowest degree first.

    h is block upper triangular with a new block wherever h_(k,k-1) = 0.  An
    unreduced block is nonderogatory, since deleting the first row and the
    last column of block - lam*1 leaves a triangular minor with the nonzero
    subdiagonal on its diagonal; so a root lam of exactly one block gives
    a - lam*1 rank n - 1, that is nullity 1.  Within a block starting at s
    the leading minors P_k of x*1 - h satisfy, expanding along the last
    column, P_(k+1) = (x - h_kk) P_k - sum_(s<=i<k) h_ik h_(i+1,i) ... h_(k,k-1) P_i."""
    if a.rows != a.cols:
        raise ShapeError("characteristic polynomial needs a square matrix")
    f, n = a.field, a.rows
    h = [list(r) for r in a.data]
    for m in range(n - 2):
        src = next((i for i in range(m + 1, n) if h[i][m]), None)
        if src is None:
            continue
        if src != m + 1:  # conjugate by the transposition of src and m + 1
            h[src], h[m + 1] = h[m + 1], h[src]
            for row in h:
                row[src], row[m + 1] = row[m + 1], row[src]
        # conjugate by 1 - sum_i u_i E_(i, m+1): row i -= u_i row m+1, then
        # column m+1 += sum_i u_i column i
        inv = f.inv(h[m + 1][m])
        pivot = h[m + 1]
        shears = [(i, f.reduce_scalar(h[i][m] * inv)) for i in range(m + 2, n) if h[i][m]]
        for i, u in shears:
            h[i] = list(f.reduce([x - u * y for x, y in zip(h[i], pivot)]))
        if shears:
            for row in h:
                acc = row[m + 1]
                for i, u in shears:
                    acc += u * row[i]
                row[m + 1] = f.reduce_scalar(acc)
    splits = [k for k in range(1, n) if not h[k][k - 1]]
    chi, blocks = [f.one], []
    for s, e in zip([0] + splits, splits + [n]):
        minors = [[f.one]]  # minors[k - s] is P_k
        for k in range(s, e):
            prev = minors[-1]
            nxt = [f.zero] + prev
            for j, y in enumerate(prev):
                nxt[j] -= h[k][k] * y
            t = f.one
            for i in range(k - 1, s - 1, -1):
                t = f.reduce_scalar(t * h[i + 1][i])
                c = h[i][k] * t
                if c:
                    for j, y in enumerate(minors[i - s]):
                        nxt[j] -= c * y
            minors.append(list(f.reduce(nxt)))
        blocks.append(minors[-1])
        chi = _poly_mul(f, chi, minors[-1])
    return chi, blocks


def _nilpotent_pattern(n: int, columns) -> bool:
    """A sufficient test, read off the zero pattern, that an n x n matrix a
    is nilpotent with nullity at least 2.  ``columns`` maps each nonzero
    column j of a to its nonzero entries as (k, a[k][j]) terms, the way
    ``LieAlgebra._rows[i]`` holds the columns of ad(b_i): a has two zero
    columns or more, and the graph with an edge j -> k for each term has no
    cycle.

    Without a cycle, ordering the basis along the graph makes ``a`` strictly
    triangular; each zero column is a kernel vector.  The search removes one
    node with no edge into it at a time: the graph has no cycle exactly
    when every node goes."""
    if n - len(columns) < 2:
        return False
    indegree = Counter(k for terms in columns.values() for k, _ in terms)
    sources = [j for j in range(n) if j not in indegree]
    removed = 0
    while sources:
        j = sources.pop()
        removed += 1
        for k, _ in columns.get(j, ()):
            indegree[k] -= 1
            if not indegree[k]:
                sources.append(k)
    return removed == n


def _roots(f: Field, c) -> list:
    """The distinct roots in GF(p) of a nonzero polynomial, in increasing order.

    Small fields are tried element by element.  Otherwise g = gcd(c, x^p - x)
    has one linear factor per root, and g is split by gcd(g, (x + a)^((p-1)/2) - 1)
    for a = 0, 1, ...: for roots r != s, r + a and s + a differ in quadratic
    character for (p - 1)/2 values of a, so some a splits g."""
    # trying every element takes p evaluations; x^p mod c alone takes about
    # 2 log2(p) products of degree len(c), each worth about len(c) evaluations
    if f.p <= 2 * f.p.bit_length() * len(c):
        return [x for x in f.elements() if not _poly_eval(f, c, x)]
    xp = _poly_powmod(f, [f.zero, f.one], f.p, c) + [f.zero, f.zero]
    xp[1] = f.sub(xp[1], f.one)
    found, todo = [], [_poly_gcd(f, c, _trim(xp))]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            found.append(f.neg(g[0]))
        elif len(g) > 2:
            todo += _split(f, g)
    return sorted(found)


def _split(f: Field, g) -> list:
    """Two monic factors of positive degree of ``g``, a product of at least
    two distinct monic linear factors, over GF(p) with p odd."""
    for a in f.elements():
        w = _poly_powmod(f, [a, f.one], (f.p - 1) // 2, g) + [f.zero]
        w[0] = f.sub(w[0], f.one)
        d = _poly_gcd(f, g, _trim(w))
        if 1 < len(d) < len(g):
            return [d, _poly_divmod(f, g, d)[0]]
    raise AssertionError("a product of distinct linear factors always splits")


# Polynomials are coefficient lists, lowest degree first; _trim drops zero
# leading coefficients, and every divisor has a nonzero leading one.

def _trim(c) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_eval(f: Field, c, x):
    acc = f.zero
    for y in reversed(c):
        acc = f.reduce_scalar(acc * x + y)
    return acc


def _poly_mul(f: Field, a, b) -> list:
    out = [f.zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return list(f.reduce(out))


def _poly_divmod(f: Field, a, b):
    """Quotient and trimmed remainder of a by b."""
    r = list(a)
    inv = f.inv(b[-1])
    q = [f.zero] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = f.mul(r[k + len(b) - 1], inv)
        if c:
            for j, y in enumerate(b):
                r[k + j] = f.sub(r[k + j], f.mul(c, y))
    return q, _trim(r[:len(b) - 1])


def _poly_powmod(f: Field, a, e: int, m) -> list:
    """a^e modulo m, trimmed."""
    out, a = _poly_divmod(f, [f.one], m)[1], _poly_divmod(f, a, m)[1]
    while e:
        if e & 1:
            out = _poly_divmod(f, _poly_mul(f, out, a), m)[1]
        a = _poly_divmod(f, _poly_mul(f, a, a), m)[1]
        e >>= 1
    return out


def _poly_gcd(f: Field, a, b) -> list:
    """Monic gcd of a and b; a nonzero."""
    while b:
        a, b = b, _poly_divmod(f, a, b)[1]
    inv = f.inv(a[-1])
    return [f.mul(inv, x) for x in a]


class GrowingSpan:
    """The one row reduction: a mutable span grown one vector at a time.

    Accepted vectors are stored forward-eliminated, keyed by pivot column,
    and insertion stops once the span is the whole space.
    :meth:`to_subspace` back-substitutes them into the reduced echelon
    basis, canonical because a span has only one."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: Field, ambient: int):
        self.field = field
        self.ambient = ambient
        self.rows = {}  # pivot column -> normalized row

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec) -> bool:
        """Add a vector; returns True when it enlarged the span."""
        if len(self.rows) == self.ambient:
            return False
        f = self.field
        v = list(vec)
        for c in range(self.ambient):
            x = v[c]
            if not x:
                continue
            x = f.reduce_scalar(x)
            if not x:
                continue
            row = self.rows.get(c)
            if row is None:
                inv = f.inv(x)
                # every entry before c has been eliminated or passed over
                self.rows[c] = (f.zero,) * c + f.reduce([inv * y if y else y for y in v[c:]])
                return True
            for i in range(c + 1, self.ambient):
                if row[i]:
                    v[i] -= x * row[i]
        return False

    def _close(self, actions, vectors) -> "GrowingSpan":
        """Grow to the smallest span holding ``vectors`` that every linear
        map in ``actions`` (a callable taking and returning a vector, such
        as ``Matrix.apply``) maps into itself, stopping once it is the whole
        space.  Only images of newly inserted vectors are taken, so the span
        must start empty (or already invariant)."""
        pool = [v for v in vectors if self.insert(v)]
        idx = 0
        while idx < len(pool) and self.dim < self.ambient:
            u = pool[idx]
            for act in actions:
                w = act(u)
                if self.insert(w):
                    if self.dim == self.ambient:
                        return self
                    pool.append(w)
            idx += 1
        return self

    def to_subspace(self) -> "Subspace":
        """The reduced echelon basis: from the last pivot back, each row is
        reduced against the rows after it, which are reduced already."""
        f, n = self.field, self.ambient
        pivots = sorted(self.rows)
        basis = [None] * len(pivots)
        for r in range(len(pivots) - 1, -1, -1):
            basis[r] = _reduce(f, n, self.rows[pivots[r]], basis[r + 1:], pivots[r + 1:])
        return Subspace(f, n, basis, pivots)


def _reduce(field: Field, ambient: int, vec, basis, pivots) -> tuple:
    """Residual of ``vec`` after eliminating against reduced echelon rows
    ``basis`` with the given pivot columns."""
    v = list(vec)
    for row, p in zip(basis, pivots):
        c = v[p]
        if c:
            c = field.reduce_scalar(c)
            if c:
                for i in range(p, ambient):
                    if row[i]:
                        v[i] -= c * row[i]
    return field.reduce(v)


def _span(field: Field, ambient: int, vectors) -> "Subspace":
    """The span of vectors of field elements of length ``ambient``, inserted
    as they are; :meth:`Subspace.span` is the builder for outside input."""
    g = GrowingSpan(field, ambient)
    for v in vectors:
        g.insert(v)
    return g.to_subspace()


class Subspace:
    """A subspace of F^n held as its unique reduced row-echelon basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in basis)
        self.pivots = tuple(pivots)

    @classmethod
    def span(cls, field: Field, ambient: int, vectors) -> "Subspace":
        """The span of outside vectors, canonicalized through :meth:`Field.of`."""
        canonical = []
        for v in vectors:
            v = tuple(field.of(x) for x in v)
            if len(v) != ambient:
                raise ShapeError(f"vector of length {len(v)} in ambient dimension {ambient}")
            canonical.append(v)
        return _span(field, ambient, canonical)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"

    def reduce(self, vec) -> tuple:
        """Residual of ``vec`` after eliminating against the echelon basis."""
        if len(vec) != self.ambient:
            raise ShapeError(f"vector of length {len(vec)} in ambient dimension {self.ambient}")
        return _reduce(self.field, self.ambient, vec, self.basis, self.pivots)

    def contains(self, vec) -> bool:
        return vec_is_zero(self.reduce(vec))

    def coords(self, vec):
        """Coefficients of ``vec`` over the echelon basis, or None."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in self.pivots)
