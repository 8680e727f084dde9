"""Dense exact linear algebra over a :class:`~lieext.fields.Field`.

Everything here is deliberately small: the algebras this package targets
have dimension well under a hundred, so plain Gaussian elimination with
deterministic pivoting (first nonzero entry in column order) is enough and
keeps echelon forms canonical.  All values are immutable after construction.

Scalars are canonicalized at the boundary only: the public builders
``Matrix.from_rows``, ``Matrix.from_columns`` and ``Subspace.span`` take
anything :meth:`Field.of` takes; everything else, the ``Matrix`` constructor
included, takes field elements as they are.
"""

from __future__ import annotations

from .errors import ShapeError
from .fields import Field

def vec_add(field: Field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))

def vec_sub(field: Field, u, v):
    return tuple(field.sub(a, b) for a, b in zip(u, v))

def vec_scale(field: Field, c, u):
    return tuple(field.mul(c, a) for a in u)

def vec_combine(field: Field, coeffs, rows):
    """The linear combination sum c_i * rows[i]; ``rows`` must be nonempty."""
    acc = [field.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for i, a in enumerate(row):
                if a:
                    acc[i] = field.add(acc[i], field.mul(c, a))
    return tuple(acc)

def vec_ratio(field: Field, w, x):
    """The scalar c with w = c * x for a nonzero x, or None if there is none."""
    lead = next(i for i, a in enumerate(x) if a)
    c = field.div(w[lead], x[lead])
    return c if w == vec_scale(field, c, x) else None

def vec_is_zero(u) -> bool:
    return all(not a for a in u)

def zero_vec(field: Field, n):
    return (field.zero,) * n

def unit_vec(field: Field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


class Matrix:
    """Immutable dense matrix; ``data`` is a tuple of row tuples of field
    elements, which the constructor takes as they are."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ShapeError(f"expected {rows}x{cols} data")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

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
        return Matrix(self.field, self.cols, self.rows,
                      tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def mul(self, other: "Matrix") -> "Matrix":
        self.field.require_same(other.field)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        f = self.field
        bt = other.transpose().data
        out = tuple(
            tuple(_dot(f, row, col) for col in bt)
            for row in self.data
        )
        return Matrix(f, self.rows, other.cols, out)

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ShapeError(f"vector of length {len(vec)} for {self.rows}x{self.cols} matrix")
        f = self.field
        return tuple(_dot(f, row, vec) for row in self.data)

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
    acc = field.zero
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def rref(m: Matrix):
    """Reduced row-echelon form.

    Returns ``(echelon, rank, pivot_cols)``.  Pivoting is deterministic
    (first row with a nonzero entry in the current column), so the result
    is the canonical representative of the row space.
    """
    f = m.field
    rows = [list(r) for r in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        src = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, x) for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    echelon = Matrix(f, m.rows, m.cols, tuple(tuple(row) for row in rows))
    return echelon, len(pivots), tuple(pivots)


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
    """Null space of ``a`` as a canonical subspace of F^cols."""
    f = a.field
    ech, rank, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(a.cols) if c not in pivot_set]
    basis = []
    for c in free:
        v = [f.zero] * a.cols
        v[c] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(ech.data[r][c])
        basis.append(tuple(v))
    return Subspace.span(f, a.cols, basis)


def eigenspace(a: Matrix, lam) -> "Subspace":
    """Eigenspace of a square matrix at eigenvalue ``lam`` (possibly zero)."""
    if a.rows != a.cols:
        raise ShapeError("eigenspace needs a square matrix")
    return kernel(a.add_scalar_diag(a.field.neg(lam)))


class GrowingSpan:
    """Mutable forward-eliminated row store for closure loops.

    Cheaper than rebuilding a canonical :class:`Subspace` per insertion;
    convert with :meth:`to_subspace` once the span stops growing."""

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
        f = self.field
        v = list(vec)
        for c in range(self.ambient):
            x = v[c]
            if not x:
                continue
            row = self.rows.get(c)
            if row is None:
                inv = f.inv(x)
                self.rows[c] = tuple(f.mul(inv, y) for y in v)
                return True
            for i in range(c, self.ambient):
                if row[i]:
                    v[i] = f.sub(v[i], f.mul(x, row[i]))
        return False

    def _close(self, mats, vectors) -> "GrowingSpan":
        """Grow to the smallest span holding ``vectors`` that every matrix in
        ``mats`` maps into itself, stopping once it is the whole space.  Only
        images of newly inserted vectors are taken, so the span must start
        empty (or already invariant)."""
        pool = [v for v in vectors if self.insert(v)]
        idx = 0
        while idx < len(pool) and self.dim < self.ambient:
            u = pool[idx]
            for m in mats:
                w = m.apply(u)
                if self.insert(w):
                    pool.append(w)
            idx += 1
        return self

    def to_subspace(self) -> "Subspace":
        return Subspace.span(self.field, self.ambient, list(self.rows.values()))


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
        vectors = [tuple(field.of(x) for x in v) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise ShapeError(f"vector of length {len(v)} in ambient dimension {ambient}")
        if not vectors:
            return cls(field, ambient, (), ())
        ech, rank, pivots = rref(Matrix(field, len(vectors), ambient, tuple(vectors)))
        return cls(field, ambient, ech.data[:rank], pivots)

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
        f = self.field
        v = list(vec)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for i in range(self.ambient):
                    if row[i]:
                        v[i] = f.sub(v[i], f.mul(c, row[i]))
        return tuple(v)

    def contains(self, vec) -> bool:
        return vec_is_zero(self.reduce(vec))

    def coords(self, vec):
        """Coefficients of ``vec`` over the echelon basis, or None."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in self.pivots)
