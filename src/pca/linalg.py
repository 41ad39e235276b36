"""Exact linear algebra over the supported fields.

Matrices are immutable-by-convention row tuples.  Every elimination, in
``rref``, ``rank``, ``nullspace``, ``solve``, ``solve_many`` and
``Subspace``, goes through one sparse Gauss-Jordan kernel, ``_eliminate``,
which works on ``{col: value}`` rows and touches only nonzero entries;
the systems the algorithms build (the separability system above all) have
a few nonzeros per row.  The reduced row echelon form of a matrix is
unique, so the kernel's results do not depend on the order in which it
visits rows or on how it stores them.  Division is exact; "no solution"
is a value (None), not an error.
"""

from __future__ import annotations

from .errors import AmbientMismatch, BadSpec
from .fields import Field, check_same_field


def vec_add(K: Field, u, v):
    return tuple(K.add(a, b) for a, b in zip(u, v))


def vec_sub(K: Field, u, v):
    return tuple(K.sub(a, b) for a, b in zip(u, v))


def vec_scale(K: Field, c, u):
    return tuple(K.mul(c, a) for a in u)


def vec_is_zero(K: Field, u) -> bool:
    return all(K.is_zero(a) for a in u)


def zero_vec(K: Field, n: int):
    return (K.zero,) * n


def unit_vec(K: Field, n: int, i: int):
    return tuple(K.one if j == i else K.zero for j in range(n))


class Matrix:
    """Dense matrix with entries in one field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, cols: int | None = None):
        data = tuple(tuple(row) for row in data)
        if data:
            cols = len(data[0])
            for row in data:
                if len(row) != cols:
                    raise BadSpec("ragged matrix rows")
        elif cols is None:
            cols = 0
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = cols

    @classmethod
    def identity(cls, field: Field, n: int):
        return cls(field, [unit_vec(field, n, i) for i in range(n)])

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int):
        return cls(field, [zero_vec(field, cols) for _ in range(rows)], cols)

    def column(self, j: int):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self):
        return Matrix(self.field, zip(*self.data) if self.data else [],
                      self.rows)

    def apply(self, v):
        """Matrix times column vector, with zero-skipping."""
        K = self.field
        out = []
        for row in self.data:
            acc = K.zero
            for a, x in zip(row, v):
                if K.is_zero(a) or K.is_zero(x):
                    continue
                acc = K.add(acc, K.mul(a, x))
            out.append(acc)
        return tuple(out)

    def mul(self, other: "Matrix"):
        check_same_field(self.field, other.field)
        if self.cols != other.rows:
            raise BadSpec("matrix dimension mismatch")
        K = self.field
        out = []
        for row in self.data:
            acc = [K.zero] * other.cols
            for k, a in enumerate(row):
                if K.is_zero(a):
                    continue
                orow = other.data[k]
                for j, b in enumerate(orow):
                    if K.is_zero(b):
                        continue
                    acc[j] = K.add(acc[j], K.mul(a, b))
            out.append(tuple(acc))
        return Matrix(K, out, other.cols)

    def add(self, other: "Matrix"):
        check_same_field(self.field, other.field)
        return Matrix(self.field,
                      [vec_add(self.field, r, s)
                       for r, s in zip(self.data, other.data)], self.cols)

    def sub(self, other: "Matrix"):
        check_same_field(self.field, other.field)
        return Matrix(self.field,
                      [vec_sub(self.field, r, s)
                       for r, s in zip(self.data, other.data)], self.cols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.cols == self.cols and other.data == self.data)

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def _sub_multiple(K: Field, row: dict, f, other: dict):
    """row -= f * other on sparse rows, storing no zero entries."""
    is_zero, sub, mul = K.is_zero, K.sub, K.mul
    for j, a in other.items():
        v = row.get(j)
        v = K.neg(mul(f, a)) if v is None else sub(v, mul(f, a))
        if is_zero(v):
            row.pop(j, None)
        else:
            row[j] = v


def _eliminate(field: Field, rows, ncols):
    """In-place RREF of a list of equal-length row lists; returns the
    pivot column list.  Pivots are taken only among the first ``ncols``
    columns; any columns past them ride along as a tail.

    The rows are reduced one at a time as ``{col: value}`` dicts against
    a set of pivot rows that is kept fully reduced: each pivot row is
    monic at its pivot, has nothing left of it, and has zeros in every
    other pivot column.  A new row therefore needs one pass over the
    pivot columns it touches, and its leftmost remaining column in range
    becomes the next pivot.  The rows are written back in place, the
    pivot rows in column order followed by the leftover rows.
    """
    K = field
    piv = {}       # pivot column -> reduced pivot row
    rest = []      # rows with nothing left in the first ncols columns
    for dense in rows:
        row = {j: a for j, a in enumerate(dense) if not K.is_zero(a)}
        for c in [c for c in row if c in piv]:
            _sub_multiple(K, row, row[c], piv[c])
        lead = min((j for j in row if j < ncols), default=None)
        if lead is None:
            rest.append(row)
            continue
        inv = K.inv(row[lead])
        if inv != K.one:
            row = {j: K.mul(inv, a) for j, a in row.items()}
        for prow in piv.values():
            f = prow.get(lead)
            if f is not None:
                _sub_multiple(K, prow, f, row)
        piv[lead] = row
    pivots = sorted(piv)
    for i, row in enumerate([piv[c] for c in pivots] + rest):
        rows[i] = dense = [K.zero] * len(rows[i])
        for j, a in row.items():
            dense[j] = a
    return pivots


def rref(M: Matrix):
    """Reduced row echelon form and the pivot columns."""
    rows = [list(r) for r in M.data]
    pivots = _eliminate(M.field, rows, M.cols)
    return Matrix(M.field, rows, M.cols), tuple(pivots)


def rank(M: Matrix) -> int:
    return len(rref(M)[1])


def nullspace(M: Matrix) -> Matrix:
    """Canonical basis (RREF rows) of {x : M x = 0}."""
    K = M.field
    R, pivots = rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [K.zero] * M.cols
        v[fc] = K.one
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(R.data[r][fc])
        basis.append(v)
    rows = [list(r) for r in basis]
    _eliminate(K, rows, M.cols)
    rows = [r for r in rows if not vec_is_zero(K, r)]
    return Matrix(K, rows, M.cols)


def solve(M: Matrix, b) -> tuple | None:
    """One exact solution of M x = b, or None when inconsistent.
    Free variables are set to zero, so the answer is deterministic."""
    sols = solve_many(M, [b])
    return None if sols is None else sols[0]


def solve_many(M: Matrix, bs) -> list | None:
    """Solve M x = b for several right-hand sides with one elimination.
    Returns None if any system is inconsistent."""
    K = M.field
    bs = [tuple(b) for b in bs]
    rows = [list(row) + [b[i] for b in bs] for i, row in enumerate(M.data)]
    pivots = _eliminate(K, rows, M.cols)
    # inconsistent when a zero row has a nonzero tail
    for row in rows:
        if all(K.is_zero(a) for a in row[:M.cols]) and any(
                not K.is_zero(a) for a in row[M.cols:]):
            return None
    out = []
    for t in range(len(bs)):
        x = [K.zero] * M.cols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][M.cols + t]
        out.append(tuple(x))
    return out


class Subspace:
    """A linear subspace of K^n held as a canonical RREF basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: Field, ambient: int, vectors):
        rows = [list(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise AmbientMismatch("vector length != ambient dimension")
        pivots = _eliminate(field, rows, ambient)
        rows = rows[:len(pivots)]
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, field: Field, ambient: int):
        return cls(field, ambient, [])

    @classmethod
    def full(cls, field: Field, ambient: int):
        return cls(field, ambient,
                   [unit_vec(field, ambient, i) for i in range(ambient)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def reduce(self, v):
        """Residue of v after eliminating against the basis."""
        K = self.field
        v = list(v)
        for row, pc in zip(self.basis, self.pivots):
            c = v[pc]
            if K.is_zero(c):
                continue
            for j in range(self.ambient):
                v[j] = K.sub(v[j], K.mul(c, row[j]))
        return tuple(v)

    def contains(self, v) -> bool:
        K = self.field
        return all(K.is_zero(a) for a in self.reduce(v))

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        K = self.field
        res = self.reduce(v)
        if not all(K.is_zero(a) for a in res):
            return None
        return tuple(v[pc] for pc in self.pivots)

    def from_coords(self, cs):
        K = self.field
        out = [K.zero] * self.ambient
        for c, row in zip(cs, self.basis):
            if K.is_zero(c):
                continue
            for j in range(self.ambient):
                out[j] = K.add(out[j], K.mul(c, row[j]))
        return tuple(out)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise AmbientMismatch("subspaces in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient,
                        list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the nullspace of the stacked coefficient system."""
        self._check_compatible(other)
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.field, self.ambient)
        K = self.field
        # columns: coefficients on our basis then on the other basis;
        # rows: one per ambient coordinate
        cols = [list(row) for row in self.basis]
        cols += [[K.neg(a) for a in row] for row in other.basis]
        M = Matrix(K, zip(*cols), len(cols))
        N = nullspace(M)
        vecs = [self.from_coords(n[:self.dim]) for n in N.data]
        return Subspace(K, self.ambient, vecs)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient == self.ambient
                and other.basis == self.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __le__(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(other.contains(v) for v in self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field!r})"
