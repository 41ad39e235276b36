"""Exact linear algebra over the supported fields.

Matrices are immutable-by-convention row tuples.  Every elimination, in
``rref``, ``rank``, ``nullspace``, ``solve``, ``solve_many`` and
``Subspace``, goes through one sparse Gauss-Jordan kernel, ``_eliminate``,
which works on ``{col: value}`` rows and touches only nonzero entries;
the systems the algorithms build (the separability system above all) have
a few nonzeros per row.  A ``Subspace`` keeps the kernel's pivot rows, so
its reductions, coordinates and sums are the kernel's own row step, and
``Subspace.extend`` carries an elimination on instead of starting over.
Given linear maps, ``extend`` also feeds each map's image of every pivot
row it adds back into that elimination, so growing a span until the maps
send it into itself (a generating set, an ideal closure, A*v) is one
carried-on elimination that applies each map once per added row.
The reduced row echelon form of a matrix is unique, so the kernel's
results do not depend on the order in which it visits rows or on how it
stores them.  Division is exact; "no solution" is a value (None), not an
error.
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

    def apply(self, v):
        """Matrix times column vector, over the nonzero coordinates of v."""
        K = self.field
        nz = [(j, x) for j, x in enumerate(v) if not K.is_zero(x)]
        out = []
        for row in self.data:
            acc = K.zero
            for j, x in nz:
                a = row[j]
                if not K.is_zero(a):
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


def _sparse(K: Field, v) -> dict:
    return {j: a for j, a in enumerate(v) if not K.is_zero(a)}


def _dense(K: Field, row: dict, n: int) -> tuple:
    out = [K.zero] * n
    for j, a in row.items():
        out[j] = a
    return tuple(out)


def _reduce(K: Field, row: dict, piv: dict) -> dict:
    """The row step: row minus its multiples of the pivot rows, in place.
    The pivot rows are fully reduced, so one pass over the pivot columns
    that the row touches clears them all."""
    for c in [c for c in row if c in piv]:
        _sub_multiple(K, row, row[c], piv[c])
    return row


def _eliminate(field: Field, rows, ncols, piv=None):
    """Gauss-Jordan elimination of dense rows, carried on from the pivot
    rows ``piv`` (updated in place) when given; returns (piv, rest).

    ``piv`` maps each pivot column to its ``{col: value}`` row, kept fully
    reduced: monic at its pivot, nothing left of it, and zeros in every
    other pivot column.  A new row therefore needs one row step, and its
    leftmost remaining column among the first ``ncols`` becomes the next
    pivot.  Later columns ride along as a tail; ``rest`` holds the rows
    left with only a nonzero tail.
    """
    K = field
    piv = {} if piv is None else piv
    rest = []
    for dense in rows:
        row = _reduce(K, _sparse(K, dense), piv)
        lead = min((j for j in row if j < ncols), default=None)
        if lead is None:
            if row:
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
    return piv, rest


def _dense_rows(K: Field, piv: dict, n: int) -> list:
    """The pivot rows as dense tuples, in pivot order: the RREF rows."""
    return [_dense(K, piv[c], n) for c in sorted(piv)]


def rref(M: Matrix):
    """Reduced row echelon form and the pivot columns."""
    K = M.field
    piv, _ = _eliminate(K, M.data, M.cols)
    rows = _dense_rows(K, piv, M.cols)
    rows += [zero_vec(K, M.cols)] * (M.rows - len(rows))
    return Matrix(K, rows, M.cols), tuple(sorted(piv))


def rank(M: Matrix) -> int:
    return len(_eliminate(M.field, M.data, M.cols)[0])


def nullspace(M: Matrix) -> Matrix:
    """Canonical basis (RREF rows) of {x : M x = 0}."""
    K = M.field
    piv, _ = _eliminate(K, M.data, M.cols)
    basis = []
    for fc in (c for c in range(M.cols) if c not in piv):
        v = [K.zero] * M.cols
        v[fc] = K.one
        for pc, row in piv.items():
            v[pc] = K.neg(row.get(fc, K.zero))
        basis.append(v)
    return Matrix(K, _dense_rows(K, _eliminate(K, basis, M.cols)[0],
                                 M.cols), M.cols)


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
    piv, rest = _eliminate(K, rows, M.cols)
    if rest:      # a zero row with a nonzero tail
        return None
    out = []
    for t in range(M.cols, M.cols + len(bs)):
        x = [K.zero] * M.cols
        for pc, row in piv.items():
            if t in row:
                x[pc] = row[t]
        out.append(tuple(x))
    return out


class Subspace:
    """A linear subspace of K^n held as a canonical RREF basis and as the
    kernel's pivot rows, which its reductions and spans run through."""

    __slots__ = ("field", "ambient", "basis", "pivots", "_rows")

    def __init__(self, field: Field, ambient: int, vectors):
        self.field = field
        self.ambient = ambient
        self._span({}, vectors)

    def _span(self, rows: dict, vectors, maps=()):
        """Store the span of the pivot rows ``rows``, ``vectors`` and the
        images under ``maps`` of every pivot row added on the way."""
        K, n = self.field, self.ambient

        def sized(vectors):
            for v in map(tuple, vectors):
                if len(v) != n:
                    raise AmbientMismatch("vector length != ambient dimension")
                yield v
        mapped = set(rows)
        _eliminate(K, sized(vectors), n, rows)
        while maps and len(rows) > len(mapped):
            fresh = [dict(rows[c]) for c in rows if c not in mapped]
            mapped = set(rows)
            _eliminate(K, sized(f(v) for v in fresh for f in maps), n, rows)
        self._rows = rows
        self.pivots = tuple(sorted(rows))
        self.basis = tuple(_dense_rows(K, rows, n))

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

    def extend(self, vectors, maps=()) -> "Subspace":
        """The span of this space, ``vectors`` and the image under each of
        the linear ``maps`` of every pivot row the call adds, carrying on
        the elimination from a copy of the stored pivot rows.  A map takes
        a row as a ``{index: nonzero scalar}`` dict and returns its image
        as a sequence of ``ambient`` scalars.  Each map is applied once to
        each added row, so the result is the smallest space holding this
        one and ``vectors`` and closed under ``maps`` whenever this space
        already was."""
        out = Subspace.__new__(Subspace)
        out.field, out.ambient = self.field, self.ambient
        out._span({c: dict(row) for c, row in self._rows.items()}, vectors,
                  maps)
        return out

    def _residue(self, v) -> dict:
        return _reduce(self.field, _sparse(self.field, v), self._rows)

    def reduce(self, v):
        """Residue of v after eliminating against the basis."""
        return _dense(self.field, self._residue(v), self.ambient)

    def contains(self, v) -> bool:
        return not self._residue(v)

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        if self._residue(v):
            return None
        return tuple(v[pc] for pc in self.pivots)

    def from_coords(self, cs):
        K = self.field
        out = {}
        for c, pc in zip(cs, self.pivots):
            if not K.is_zero(c):
                _sub_multiple(K, out, K.neg(c), self._rows[pc])
        return _dense(K, out, self.ambient)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field or self.ambient != other.ambient:
            raise AmbientMismatch("subspaces in different ambient spaces")

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return self.extend(other.basis)

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

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field!r})"
