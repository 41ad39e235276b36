"""Exact linear algebra over the supported fields.

Matrices are immutable-by-convention row tuples.  Every elimination, in
``rref``, ``rank``, ``nullspace``, ``solve``, ``solve_many`` and
``Subspace``, goes through one sparse Gauss-Jordan kernel, ``_eliminate``,
which works on ``{col: value}`` rows and touches only nonzero entries;
the systems the algorithms build (the separability system above all) have
a few nonzeros per row.  Its one row step, ``_step``, clears column c of
a row by row <- (d/g) row - (r/g) prow, with d the pivot entry of the
pivot row, r the row's entry and g = gcd(d, r).  Over a field the pivot
rows are monic, so this is row - r prow.  Over Q the kernel keeps its rows
as primitive integer vectors with a positive pivot, so its steps multiply
ints, never Rationals; a row enters that form once and each pivot row
the call changed leaves it monic.  A new pivot is cleared only from the
pivot rows that hold its column, which the index ``where[col]`` lists, so
a system of rank r costs no r^2 scan.

A ``Subspace`` keeps the kernel's pivot rows, monic and with canonical
scalars, so its reductions, coordinates and sums are the kernel's own row
step, and ``Subspace.extend`` carries an elimination on instead of
starting over.  A linear map is given by its sparse columns, a mapping
from j to the (k, scalar) pairs of the image of e_j (a repeated k adds
up); homomorphisms, bimodule actions and derivations are held so.  Only
this module applies one, to a row (``_apply_map``) or to another map
(``compose``), and a law stated as an equality of maps is one
``first_difference``.  A ``Subspace`` reduces a map's columns modulo
itself (``residue``: a quotient's table), reads them in its coordinates
(``coordinates``, and ``restrict`` on an invariant subspace) and spans
them (``span_of``) or its rows' images (``image``); ``extend`` feeds each
map's image of every pivot row it adds back into its elimination, so
growing a span until the maps send it into itself is one elimination.
The dense ``Matrix`` is the file, report and ``rref``/``solve`` format
only, and meets the maps only in ``Matrix.to_map`` and
``Matrix.from_map``.  Only ``_map_rows`` turns maps into the rows of
their equations (``solve_maps``, ``Subspace.kernel``).
The reduced row echelon form of a matrix is unique, so the kernel's
results do not depend on the order in which it visits rows or on how it
stores them.  Division is exact; "no solution" is a value (None), not an
error.
"""

from __future__ import annotations

import operator
from math import gcd

from .errors import AmbientMismatch, BadSpec
from .fields import (Field, PrimeField, Rationals, _over_common_denominator,
                     _ratio)


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
    def from_map(cls, field: Field, rows: int, cols: int, f):
        """The rows x cols matrix of the map f given by its sparse columns,
        a repeated index adding up."""
        data = [[field.zero] * cols for _ in range(rows)]
        for j, col in f.items():
            for k, c in col:
                data[k][j] = field.add(data[k][j], c)
        return cls(field, data, cols)

    def to_map(self):
        """The sparse columns of this matrix, as ``from_map`` reads them."""
        return map_of(self.field, self.columns())

    def column(self, j: int):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

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


class _Integers:
    """The arithmetic of Q rows inside ``_eliminate``, which are primitive
    integer vectors: plain ``int`` operations, no ``Rational``."""

    zero, one = 0, 1
    add, sub, mul, neg, is_zero = (operator.add, operator.sub, operator.mul,
                                   operator.neg, operator.not_)


def _step(R, row: dict, c, prow: dict) -> bool:
    """The row step at the pivot column c of ``prow``, in place:
    row <- (d/g) row - (r/g) prow with d = prow[c], r = row[c] and
    g = gcd(d, r), which clears column c.  A field's pivot rows are monic,
    so d = 1, g = 1 and the step is row - r prow; only integer Q rows
    have d > 1.  Returns whether row was scaled (d/g > 1)."""
    d, f = prow[c], row[c]
    if d == R.one:
        _sub_multiple(R, row, f, prow)
        return False
    g = gcd(d, f)
    d, f = d // g, f // g
    if d != 1:
        for j in row:
            row[j] *= d
    _sub_multiple(R, row, f, prow)
    return d != 1


def _primitive(row: dict):
    """Divide an integer row by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for j in row:
            row[j] //= g


def _q_enter(row: dict) -> dict:
    """A Q row as a primitive integer vector: its entries over their common
    denominator, divided by their gcd.  ``gcd`` takes only ints, so one
    call both tests an integral row and finds its content."""
    try:
        g = gcd(*row.values())
    except TypeError:       # a Rational among the entries
        row = dict(zip(row, _over_common_denominator(row.values())[0]))
        g = gcd(*row.values())
    return row if g < 2 else {j: a // g for j, a in row.items()}


def _q_leave(row: dict, c) -> dict:
    """The monic Q row of an integer row whose pivot column is c."""
    d = row[c]
    return row if d == 1 else {j: _ratio(a, d) for j, a in row.items()}


def _sparse(K: Field, v) -> dict:
    return {j: a for j, a in enumerate(v) if not K.is_zero(a)}


def _apply_map(K: Field, cols, row: dict) -> dict:
    """The image of a kernel row under the map with sparse columns
    ``cols``, as a zero-free kernel row."""
    add, mul = K.add, K.mul
    out = {}
    for j, x in row.items():
        for k, c in cols.get(j, ()):
            v = mul(x, c)
            out[k] = add(out[k], v) if k in out else v
    return {k: v for k, v in out.items() if not K.is_zero(v)}


def identity_map(field: Field, n: int) -> dict:
    return {j: ((j, field.one),) for j in range(n)}


def map_of(field: Field, vectors) -> dict:
    """The map whose column j is the dense vector ``vectors[j]``."""
    return {j: tuple(_sparse(field, v).items()) for j, v in enumerate(vectors)}


def apply_map(field: Field, f, v, m: int) -> tuple:
    """f(v), of length m, for the map f given by its sparse columns."""
    return _dense(field, _apply_map(field, f, _sparse(field, v)), m)


def compose(field: Field, f, g) -> dict:
    """f after g, for maps given by sparse columns: column j lists (k, c d)
    for each (m, c) in column j of g and (k, d) in column m of f, unsummed
    (an index may repeat); over Q and F_p on ints, reduced mod p."""
    p = field.p if isinstance(field, PrimeField) else 0
    mul = operator.mul if isinstance(field, Rationals) else field.mul
    return {j: tuple([(k, c * d % p if p else mul(c, d)) for m, c in col
                      for k, d in f.get(m, ())]) for j, col in g.items()}


def first_difference(field: Field, f, g):
    """The least column where the maps f and g (sparse columns, repeated
    indices adding up) differ, or None: one accumulator keyed (j, k), over
    Q and F_p summing ints and reducing each entry mod p once."""
    K = field
    add, sub = ((operator.add, operator.sub)
                if isinstance(K, (Rationals, PrimeField)) else (K.add, K.sub))
    acc = {}
    get, zero = acc.get, K.zero
    for op, h in ((add, f), (sub, g)):
        for j, col in h.items():
            for k, c in col:
                acc[j, k] = op(get((j, k), zero), c)
    p = K.p if isinstance(K, PrimeField) else 0
    return min((j for (j, _), v in acc.items()
                if not K.is_zero(v % p if p else v)), default=None)


def _map_rows(K: Field, maps, rhs=(), ncols=0) -> list:
    """The kernel rows of f(x) = b: row (f, k) holds at column j the sum
    of the c with (k, c) in column j of f, and b[k] at column ``ncols``.
    ``rhs`` holds the b of the first maps; the others are zero."""
    rows = {}
    for t, f in enumerate(maps):
        for j, col in f.items():
            for k, c in col:
                row = rows.setdefault((t, k), {})
                row[j] = K.add(row[j], c) if j in row else c
    for t, b in enumerate(rhs):
        for k, c in enumerate(b):
            if not K.is_zero(c):
                rows.setdefault((t, k), {})[ncols] = c
    return [{j: a for j, a in row.items() if not K.is_zero(a)}
            for row in rows.values()]


def _dense(K: Field, row: dict, n: int) -> tuple:
    out = [K.zero] * n
    for j, a in row.items():
        out[j] = a
    return tuple(out)


def _reduce(K: Field, row: dict, piv: dict, held=None) -> bool:
    """The row step against every pivot row whose column the row touches,
    in place; ``held`` gives the pivot rows in the kernel's form when that
    is not ``piv``.  The pivot rows are fully reduced, so one pass clears
    them all.  Returns whether the row was scaled."""
    held = piv if held is None else held
    scaled = False
    for c in [c for c in row if c in piv]:
        scaled = _step(K, row, c, held[c]) or scaled
    return scaled


class _Held(dict):
    """Over Q, the integer form of each pivot row the kernel touches,
    made from the stored monic row on first use."""

    def __init__(self, piv: dict):
        super().__init__()
        self.piv = piv

    def __missing__(self, c):
        row = self[c] = _q_enter(self.piv[c])
        return row


def _eliminate(field: Field, rows, ncols, piv=None):
    """Gauss-Jordan elimination of the ``{col: value}`` rows ``rows``
    (``_sparse`` of dense ones), carried on from the pivot rows ``piv``
    (updated in place) when given; returns (piv, rest).

    ``piv`` maps each pivot column to its ``{col: value}`` row, kept fully
    reduced: monic at its pivot, nothing left of it, and zeros in every
    other pivot column.  A new row therefore needs one row step
    (``_step``) per pivot column it touches, and its leftmost remaining
    column among the first ``ncols`` becomes the next pivot, which is then
    cleared from the pivot rows that hold it: ``where[col]`` lists them,
    built from ``piv`` at the first new pivot and kept up to date by every
    step.  Later columns ride along as a tail; ``rest`` holds the rows left
    with only a nonzero tail.

    Over Q the rows run as primitive integer vectors with a positive
    pivot, so the steps multiply ints and never form a ``Rational``: each
    row enters integer form once (``_q_enter``), and each pivot row the
    call changed leaves it monic (``_q_leave``).  ``rest`` rows are
    left as integer vectors, which are Q rows too.
    """
    K = field
    piv = {} if piv is None else piv
    q = isinstance(K, Rationals)
    R, held = (_Integers, _Held(piv)) if q else (K, piv)
    where = None
    changed = set()
    rest = []
    for row in rows:
        if q:
            row = _q_enter(row)
        scaled = _reduce(R, row, piv, held)
        lead = min((j for j in row if j < ncols), default=None)
        if lead is None:
            if row:
                rest.append(row)
            continue
        if q:
            if scaled:
                _primitive(row)
            if row[lead] < 0:
                row = {j: -a for j, a in row.items()}
        elif row[lead] != K.one:
            inv = K.inv(row[lead])
            row = {j: K.mul(inv, a) for j, a in row.items()}
        if where is None:
            where = {}
            for c, prow in piv.items():
                for j in prow:
                    if j != c:
                        where.setdefault(j, set()).add(c)
        for c in where.pop(lead, ()):
            prow = held[c]
            if _step(R, prow, lead, row):
                _primitive(prow)
            changed.add(c)
            for j in row:
                if j in prow:
                    where.setdefault(j, set()).add(c)
                elif j in where:
                    where[j].discard(c)
        for j in row:
            if j != lead:
                where.setdefault(j, set()).add(lead)
        piv[lead] = held[lead] = row
        changed.add(lead)
    if q:
        for c in changed:
            piv[c] = _q_leave(held[c], c)
    return piv, rest


def _dense_rows(K: Field, piv: dict, n: int) -> list:
    """The pivot rows as dense tuples, in pivot order: the RREF rows."""
    return [_dense(K, piv[c], n) for c in sorted(piv)]


def rref(M: Matrix):
    """Reduced row echelon form and the pivot columns."""
    K = M.field
    piv, _ = _eliminate(K, [_sparse(K, r) for r in M.data], M.cols)
    rows = _dense_rows(K, piv, M.cols)
    rows += [zero_vec(K, M.cols)] * (M.rows - len(rows))
    return Matrix(K, rows, M.cols), tuple(sorted(piv))


def rank(M: Matrix) -> int:
    K = M.field
    return len(_eliminate(K, [_sparse(K, r) for r in M.data], M.cols)[0])


def _kernel(K: Field, rows, n: int) -> "Subspace":
    """{x in K^n : every kernel row in ``rows`` vanishes on x}."""
    piv, _ = _eliminate(K, rows, n)
    return Subspace.zero(K, n)._new({}, [
        {fc: K.one, **{pc: K.neg(row[fc]) for pc, row in piv.items()
                       if fc in row}} for fc in range(n) if fc not in piv])


def _solution(K: Field, piv: dict, t: int, n: int) -> tuple:
    """x read off the tail column t of the pivot rows, free coordinates 0."""
    return _dense(K, {pc: row[t] for pc, row in piv.items() if t in row}, n)


def nullspace(M: Matrix) -> Matrix:
    """Canonical basis (RREF rows) of {x : M x = 0}."""
    K = M.field
    return Matrix(K, _kernel(K, [_sparse(K, r) for r in M.data],
                             M.cols).basis, M.cols)


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
    rows = [_sparse(K, list(row) + [b[i] for b in bs])
            for i, row in enumerate(M.data)]
    piv, rest = _eliminate(K, rows, M.cols)
    if rest:      # a zero row with a nonzero tail
        return None
    return [_solution(K, piv, t, M.cols)
            for t in range(M.cols, M.cols + len(bs))]


def solve_maps(field: Field, n: int, maps, rhs):
    """One exact x in K^n with f(x) = rhs[t] for each map f = maps[t]
    (zero past the end of ``rhs``), free coordinates zero, or None when
    there is none; the rows come from ``_map_rows``."""
    piv, rest = _eliminate(field, _map_rows(field, maps, rhs, n), n)
    return None if rest else _solution(field, piv, n, n)


class Subspace:
    """A linear subspace of K^n held as a canonical RREF basis and as the
    kernel's pivot rows, which its reductions and spans run through."""

    __slots__ = ("field", "ambient", "basis", "pivots", "_rows")

    def __init__(self, field: Field, ambient: int, vectors):
        self.field = field
        self.ambient = ambient
        self._span({}, self._checked_rows(vectors))

    def _checked_rows(self, vectors):
        for v in map(tuple, vectors):
            if len(v) != self.ambient:
                raise AmbientMismatch("vector length != ambient dimension")
            yield _sparse(self.field, v)

    def _span(self, rows: dict, new, maps=()):
        """Store the span of the pivot rows ``rows``, the kernel rows
        ``new`` and the images under ``maps`` of every pivot row added on
        the way; a batch's images are formed before it is eliminated."""
        K, n = self.field, self.ambient
        mapped = set(rows)
        _eliminate(K, new, n, rows)
        while maps and len(rows) > len(mapped):
            new = [_apply_map(K, f, rows[c]) for c in rows if c not in mapped
                   for f in maps]
            mapped = set(rows)
            _eliminate(K, new, n, rows)
        self._rows = rows
        self.pivots = tuple(sorted(rows))
        self.basis = tuple(_dense_rows(K, rows, n))

    def _new(self, rows: dict, new, maps=()) -> "Subspace":
        out = Subspace.__new__(Subspace)
        out.field, out.ambient = self.field, self.ambient
        out._span(rows, new, maps)
        return out

    @classmethod
    def zero(cls, field: Field, ambient: int):
        return cls(field, ambient, [])

    @classmethod
    def span_of(cls, field: Field, ambient: int, f) -> "Subspace":
        """The span of the columns of the map f (sparse columns)."""
        return cls.zero(field, ambient)._new(
            {}, [_apply_map(field, f, {j: field.one}) for j in f])

    @staticmethod
    def kernel(field: Field, ambient: int, maps) -> "Subspace":
        """{x : f(x) = 0 for every map f in ``maps``}, from ``_map_rows``."""
        return _kernel(field, _map_rows(field, maps), ambient)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def extend(self, vectors, maps=()) -> "Subspace":
        """The span of this space, ``vectors`` and the images under the
        linear ``maps`` of every pivot row the call adds, carrying on the
        elimination from a copy of the pivot rows.  Each map is applied once
        to each added row, so the result is the smallest space holding this
        one and ``vectors`` and closed under ``maps`` if this one was."""
        return self._new({c: dict(row) for c, row in self._rows.items()},
                         self._checked_rows(vectors), maps)

    def image(self, maps) -> "Subspace":
        """The span of the images of this space's pivot rows under the
        linear ``maps`` (sparse columns, as for ``extend``)."""
        return self._new({}, [_apply_map(self.field, f, row)
                              for row in self._rows.values() for f in maps])

    def residue(self, f) -> dict:
        """The columns of the map f reduced modulo this space, as sparse
        columns: column j is what the row steps against the pivot rows
        leave of f(e_j), so it has no entry at a pivot."""
        K, out = self.field, {}
        for j in f:
            row = _apply_map(K, f, {j: K.one})
            _reduce(K, row, self._rows)
            out[j] = tuple(row.items())
        return out

    def coordinates(self, f):
        """The columns of the map f in the coordinates of this space's RREF
        basis, or None when one leaves the space.  A vector of the space
        is the sum of its entries at the pivots times the basis rows."""
        if any(self.residue(f).values()):
            return None
        at = {pc: t for t, pc in enumerate(self.pivots)}
        return {j: tuple((at[k], c) for k, c in _apply_map(
            self.field, f, {j: self.field.one}).items() if k in at)
            for j in f}

    def restrict(self, f):
        """The map f on this space, in the coordinates of its RREF basis,
        or None when f does not send the space into itself."""
        return self.coordinates(compose(self.field, f, {
            t: tuple(self._rows[pc].items())
            for t, pc in enumerate(self.pivots)}))

    def contains(self, v) -> bool:
        return not self.residue(map_of(self.field, [v]))[0]

    def coords(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        if not self.contains(v):
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
        """U cap W by Zassenhaus: one elimination on the first n columns of
        the rows (u | u), u a pivot row of U, and (w | 0), w one of W,
        leaves rows (0 | x) whose tails x span U cap W."""
        self._check_compatible(other)
        n = self.ambient
        rows = [{**u, **{n + j: a for j, a in u.items()}}
                for u in self._rows.values()]
        rows += [dict(w) for w in other._rows.values()]
        _, rest = _eliminate(self.field, rows, n)
        return self._new({}, [{j - n: a for j, a in x.items()}
                              for x in rest])

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.field == self.field
                and other.ambient == self.ambient
                and other.basis == self.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient} over {self.field!r})"
