"""Finite-dimensional associative unital algebras given by structure constants.

Constructors only store their fields; each type's proof is its ``verify()``,
run on input from outside (``make_algebra``, ``hom_check``) and on computed
results.  The constructions below are valid by construction and not
re-proved.  All values are immutable by convention and all operations are
pure.
"""

from __future__ import annotations

from .errors import (AmbientMismatch, BadSpec, ImproperIdeal, NoUnit,
                     NotAHom, NotAnExtension, NotAnIdeal, NotAssociative)
from .fields import Field, SimpleExtension, check_same_field
from .linalg import (Matrix, Subspace, nullspace, rank, solve, unit_vec,
                     vec_add, vec_scale, vec_sub, zero_vec)
from .poly import Poly


class FinAlg:
    """Associative unital algebra on a labelled basis.

    ``rows[i][j]`` holds the nonzero structure constants of e_i * e_j as a
    tuple of (k, scalar) pairs; e_i * e_j = sum_k c * e_k.
    """

    __slots__ = ("field", "dim", "labels", "rows", "unit", "_ltrace")

    def __init__(self, field: Field, labels, rows, unit):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.rows = rows
        self.unit = tuple(unit)
        trace = []
        for i in range(self.dim):
            acc = field.zero
            for k in range(self.dim):
                for kk, c in self.rows[i].get(k, ()):
                    if kk == k:
                        acc = field.add(acc, c)
            trace.append(acc)
        self._ltrace = tuple(trace)

    # -- element arithmetic -------------------------------------------------

    def zero_element(self):
        return zero_vec(self.field, self.dim)

    def basis_element(self, i: int):
        return unit_vec(self.field, self.dim, i)

    def add(self, u, v):
        return vec_add(self.field, u, v)

    def sub(self, u, v):
        return vec_sub(self.field, u, v)

    def scale(self, c, u):
        return vec_scale(self.field, c, u)

    def mul(self, u, v):
        K = self.field
        acc = [K.zero] * self.dim
        for i, ci in enumerate(u):
            if K.is_zero(ci):
                continue
            row = self.rows[i]
            for j, cj in enumerate(v):
                if K.is_zero(cj):
                    continue
                cell = row.get(j)
                if not cell:
                    continue
                cc = K.mul(ci, cj)
                for k, c in cell:
                    acc[k] = K.add(acc[k], K.mul(cc, c))
        return tuple(acc)

    def power(self, u, m: int):
        out = self.unit
        for _ in range(m):
            out = self.mul(out, u)
        return out

    def product_basis(self, i: int, j: int):
        K = self.field
        out = [K.zero] * self.dim
        for k, c in self.rows[i].get(j, ()):
            out[k] = c
        return tuple(out)

    def left_mult_matrix(self, u) -> Matrix:
        K = self.field
        cols = [[K.zero] * self.dim for _ in range(self.dim)]
        for i, ci in enumerate(u):
            if K.is_zero(ci):
                continue
            for j, cell in self.rows[i].items():
                col = cols[j]
                for k, c in cell:
                    col[k] = K.add(col[k], K.mul(ci, c))
        return Matrix(K, zip(*cols), self.dim)

    def right_mult_matrix(self, u) -> Matrix:
        K = self.field
        cols = [[K.zero] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            col = cols[i]
            row = self.rows[i]
            for j, cj in enumerate(u):
                if K.is_zero(cj):
                    continue
                for k, c in row.get(j, ()):
                    col[k] = K.add(col[k], K.mul(cj, c))
        return Matrix(K, zip(*cols), self.dim)

    def trace_left_mult(self, u):
        K = self.field
        acc = K.zero
        for ci, t in zip(u, self._ltrace):
            if K.is_zero(ci) or K.is_zero(t):
                continue
            acc = K.add(acc, K.mul(ci, t))
        return acc

    # -- validation ---------------------------------------------------------

    def verify(self):
        """Check associativity on all basis triples and the unit laws."""
        K = self.field
        n = self.dim
        if len(self.unit) != n:
            raise BadSpec("unit vector has wrong length")
        prods = [[self.product_basis(i, j) for j in range(n)]
                 for i in range(n)]
        for i in range(n):
            for j in range(n):
                pij = prods[i][j]
                for k in range(n):
                    left = self.mul(pij, self.basis_element(k))
                    right = self.mul(self.basis_element(i), prods[j][k])
                    if left != right:
                        raise NotAssociative(
                            f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})",
                            (i, j, k))
        for i in range(n):
            e = self.basis_element(i)
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise NoUnit(f"unit law fails on basis element {i}")
        return True

    def entries(self):
        """Sorted sparse structure-constant entries (i, j, k, scalar)."""
        out = []
        for i in range(self.dim):
            for j in sorted(self.rows[i]):
                for k, c in self.rows[i][j]:
                    out.append((i, j, k, c))
        out.sort(key=lambda e: (e[0], e[1], e[2]))
        return out

    def __eq__(self, other):
        """Structural equality; basis labels carry no semantics."""
        return (isinstance(other, FinAlg) and other.field == self.field
                and other.dim == self.dim and other.unit == self.unit
                and other.entries() == self.entries())

    def __hash__(self):
        return hash((self.field, self.dim, self.unit))

    def __repr__(self):
        return f"FinAlg(dim {self.dim} over {self.field!r})"


def _build_rows(field: Field, dim: int, entries):
    cells = {}
    for i, j, k, c in entries:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise BadSpec(f"structure constant index out of range: {(i, j, k)}")
        key = (i, j, k)
        cells[key] = field.add(cells.get(key, field.zero), c)
    rows = [dict() for _ in range(dim)]
    for (i, j, k), c in sorted(cells.items()):
        if field.is_zero(c):
            continue
        rows[i].setdefault(j, []).append((k, c))
    return tuple({j: tuple(v) for j, v in row.items()} for row in rows)


def _solve_unit(probe: FinAlg):
    field = probe.field
    dim = probe.dim
    eqs = []
    rhs = []
    for j in range(dim):
        lcol = [probe.mul(probe.basis_element(i), probe.basis_element(j))
                for i in range(dim)]
        rcol = [probe.mul(probe.basis_element(j), probe.basis_element(i))
                for i in range(dim)]
        for k in range(dim):
            eqs.append([lcol[i][k] for i in range(dim)])
            rhs.append(field.one if j == k else field.zero)
            eqs.append([rcol[i][k] for i in range(dim)])
            rhs.append(field.one if j == k else field.zero)
    u = solve(Matrix(field, eqs, dim), tuple(rhs))
    if u is None:
        raise NoUnit("multiplication table admits no two-sided unit")
    return u


def _trusted_algebra(field: Field, labels, entries, unit) -> FinAlg:
    """A FinAlg from entries that are valid by construction, unproved."""
    labels = list(labels)
    if not labels:
        raise BadSpec("algebras must have dimension >= 1")
    return FinAlg(field, labels, _build_rows(field, len(labels), entries),
                  unit)


def make_algebra(field: Field, labels, entries, unit=None) -> FinAlg:
    """Build and validate a FinAlg from sparse (i, j, k, scalar) entries.

    When ``unit`` is omitted it is solved for; NoUnit is raised if the
    table has no two-sided unit.
    """
    A = _trusted_algebra(field, labels, entries, () if unit is None else unit)
    if unit is None:
        A = FinAlg(field, A.labels, A.rows, _solve_unit(A))
    A.verify()
    return A


# -- standard constructors ----------------------------------------------------

def group_algebra(n: int, field: Field) -> FinAlg:
    """Group algebra of the cyclic group of order n."""
    if n < 1:
        raise BadSpec("cyclic group order must be >= 1")
    labels = ["1" if i == 0 else ("g" if i == 1 else f"g^{i}")
              for i in range(n)]
    entries = [(i, j, (i + j) % n, field.one)
               for i in range(n) for j in range(n)]
    unit = unit_vec(field, n, 0)
    return _trusted_algebra(field, labels, entries, unit)


def matrix_algebra(n: int, field: Field) -> FinAlg:
    """Full matrix algebra M_n with the E_ij basis."""
    if n < 1:
        raise BadSpec("matrix degree must be >= 1")
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    entries = []
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                entries.append((a, b, idx[(i, l)], field.one))
    unit = [field.zero] * (n * n)
    for i in range(n):
        unit[idx[(i, i)]] = field.one
    return _trusted_algebra(field, labels, entries, unit)


def triangular_algebra(n: int, field: Field) -> FinAlg:
    """Upper triangular n x n matrices."""
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    idx = {p: a for a, p in enumerate(pos)}
    labels = [f"E{i + 1}{j + 1}" for i, j in pos]
    entries = []
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                entries.append((a, b, idx[(i, l)], field.one))
    unit = [field.zero] * len(pos)
    for i in range(n):
        unit[idx[(i, i)]] = field.one
    return _trusted_algebra(field, labels, entries, unit)


def truncated_polynomial_algebra(field: Field, n: int) -> FinAlg:
    """k[x]/(x^n) on the basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise BadSpec("truncation order must be >= 1")
    labels = ["1" if i == 0 else ("x" if i == 1 else f"x^{i}")
              for i in range(n)]
    entries = [(i, j, i + j, field.one)
               for i in range(n) for j in range(n) if i + j < n]
    return _trusted_algebra(field, labels, entries, unit_vec(field, n, 0))


def polynomial_quotient_algebra(f: Poly) -> FinAlg:
    """k[x]/(f) on the power basis, for monic f of degree >= 1."""
    from .fields import pmod
    K = f.field
    f = f.monic()
    n = f.degree
    if n < 1:
        raise BadSpec("need a nonconstant modulus")
    labels = ["1" if i == 0 else ("x" if i == 1 else f"x^{i}")
              for i in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            prod = [K.zero] * (i + j) + [K.one]
            rem = pmod(tuple(prod), f.coeffs, K)
            for k, c in enumerate(rem):
                if not K.is_zero(c):
                    entries.append((i, j, k, c))
    return _trusted_algebra(K, labels, entries, unit_vec(K, n, 0))


def direct_product(algebras) -> FinAlg:
    """Componentwise product algebra with componentwise unit."""
    algebras = list(algebras)
    if not algebras:
        raise BadSpec("direct product of an empty list")
    K = algebras[0].field
    for a in algebras:
        check_same_field(K, a.field)
    labels = []
    entries = []
    unit = []
    offset = 0
    for t, a in enumerate(algebras):
        labels.extend(f"{t}:{lab}" for lab in a.labels)
        for i, j, k, c in a.entries():
            entries.append((offset + i, offset + j, offset + k, c))
        unit.extend(a.unit)
        offset += a.dim
    return _trusted_algebra(K, labels, entries, unit)


def opposite(a: FinAlg) -> FinAlg:
    """Same space with reversed multiplication."""
    entries = [(j, i, k, c) for i, j, k, c in a.entries()]
    return _trusted_algebra(a.field, a.labels, entries, a.unit)


def tensor(a: FinAlg, b: FinAlg) -> FinAlg:
    """Tensor product algebra on the e_i (x) f_j basis."""
    check_same_field(a.field, b.field)
    K = a.field
    nb = b.dim
    labels = [f"{la}⊗{lb}" for la in a.labels for lb in b.labels]
    entries = []
    for i1, j1, k1, c1 in a.entries():
        for i2, j2, k2, c2 in b.entries():
            entries.append((i1 * nb + i2, j1 * nb + j2, k1 * nb + k2,
                            K.mul(c1, c2)))
    unit = [K.mul(x, y) for x in a.unit for y in b.unit]
    return _trusted_algebra(K, labels, entries, unit)


def base_change(a: FinAlg, E: Field) -> FinAlg:
    """Reinterpret the structure constants over an extension E of the base."""
    if E == a.field:
        return a
    if not (isinstance(E, SimpleExtension) and E.base == a.field):
        raise NotAnExtension(f"{E!r} does not extend {a.field!r}")
    entries = [(i, j, k, E.embed(c)) for i, j, k, c in a.entries()]
    unit = [E.embed(c) for c in a.unit]
    return _trusted_algebra(E, a.labels, entries, unit)


def restrict_scalars(a: FinAlg):
    """View an algebra over a simple extension E as an algebra over E.base.

    Returns (B, down, up): B the restricted algebra of dimension
    dim(a) * deg(E); ``down`` maps an a-vector to B-coordinates and ``up``
    inverts it.
    """
    E = a.field
    if not isinstance(E, SimpleExtension):
        raise NotAnExtension("restrict_scalars needs an extension field")
    B = E.base
    d = E.degree
    n = a.dim

    def down(v):
        out = []
        for c in v:
            out.extend(c)
        return tuple(out)

    def up(w):
        return tuple(tuple(w[i * d: (i + 1) * d]) for i in range(n))

    powers = [E.one]
    for _ in range(d - 1):
        powers.append(E.mul(powers[-1], E.gen))
    labels = []
    for lab in a.labels:
        for s in range(d):
            labels.append(lab if s == 0 else f"{lab}*{E.name}^{s}")
    entries = []
    for i, j, k, c in a.entries():
        for s in range(d):
            for t in range(d):
                q = E.mul(E.mul(powers[s], powers[t]), c)
                for r in range(d):
                    if not B.is_zero(q[r]):
                        entries.append((i * d + s, j * d + t, k * d + r, q[r]))
    unit = down(a.unit)
    return _trusted_algebra(B, labels, entries, unit), down, up


# -- ideals -------------------------------------------------------------------

class Ideal:
    """A subspace closed under the declared multiplications."""

    __slots__ = ("ambient", "space", "sidedness")

    def __init__(self, ambient: FinAlg, space: Subspace, sidedness="twosided"):
        if sidedness not in ("left", "right", "twosided"):
            raise BadSpec(f"bad sidedness {sidedness!r}")
        if space.ambient != ambient.dim or space.field != ambient.field:
            raise AmbientMismatch("ideal basis does not match the algebra")
        self.ambient = ambient
        self.space = space
        self.sidedness = sidedness

    def verify(self):
        """Check closure under the declared multiplications by the basis."""
        A, space = self.ambient, self.space
        for v in space.basis:
            for i in range(A.dim):
                e = A.basis_element(i)
                if self.sidedness in ("left", "twosided"):
                    if not space.contains(A.mul(e, v)):
                        raise NotAnIdeal(f"not closed under left e{i}")
                if self.sidedness in ("right", "twosided"):
                    if not space.contains(A.mul(v, e)):
                        raise NotAnIdeal(f"not closed under right e{i}")
        return True

    @property
    def dim(self):
        return self.space.dim

    def is_zero(self):
        return self.space.is_zero()

    def contains(self, v):
        return self.space.contains(v)

    def __eq__(self, other):
        return (isinstance(other, Ideal) and other.ambient == self.ambient
                and other.space == self.space
                and other.sidedness == self.sidedness)

    def __hash__(self):
        return hash((self.space, self.sidedness))

    def __repr__(self):
        return f"Ideal(dim {self.dim}, {self.sidedness})"


def ideal_closure(a: FinAlg, generators, sidedness="twosided") -> Ideal:
    """Smallest subspace containing the generators and closed under the
    declared actions, by iterated multiplication until the dimension stops
    growing."""
    space = Subspace(a.field, a.dim, list(generators))
    while True:
        new_vecs = list(space.basis)
        for v in space.basis:
            for i in range(a.dim):
                e = a.basis_element(i)
                if sidedness in ("left", "twosided"):
                    new_vecs.append(a.mul(e, v))
                if sidedness in ("right", "twosided"):
                    new_vecs.append(a.mul(v, e))
        bigger = Subspace(a.field, a.dim, new_vecs)
        if bigger.dim == space.dim:
            return Ideal(a, space, sidedness)
        space = bigger


def subspace_product(a: FinAlg, u: Subspace, v: Subspace) -> Subspace:
    """Span of all pairwise products of basis vectors."""
    vecs = [a.mul(x, y) for x in u.basis for y in v.basis]
    return Subspace(a.field, a.dim, vecs)


# -- homomorphisms ------------------------------------------------------------

class AlgHom:
    """A linear map that is a unital algebra homomorphism.

    The matrix has one column per source basis element holding the image.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FinAlg, target: FinAlg, matrix: Matrix):
        check_same_field(source.field, target.field)
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise BadSpec("hom matrix has wrong shape")
        self.source = source
        self.target = target
        self.matrix = matrix

    def verify(self):
        src, tgt, M = self.source, self.target, self.matrix
        if M.apply(src.unit) != tgt.unit:
            raise NotAHom("phi(1) != 1")
        cols = M.columns()
        for i in range(src.dim):
            for j in range(src.dim):
                lhs = M.apply(src.product_basis(i, j))
                rhs = tgt.mul(cols[i], cols[j])
                if lhs != rhs:
                    raise NotAHom(
                        f"phi(e{i}*e{j}) != phi(e{i})*phi(e{j})", (i, j))
        return True

    def apply(self, v):
        return self.matrix.apply(v)

    def compose(self, inner: "AlgHom") -> "AlgHom":
        """self after inner."""
        if inner.target != self.source:
            raise BadSpec("composition mismatch")
        return AlgHom(inner.source, self.target,
                      self.matrix.mul(inner.matrix))

    def image(self) -> Subspace:
        return Subspace(self.target.field, self.target.dim,
                        self.matrix.columns())

    def __eq__(self, other):
        return (isinstance(other, AlgHom) and other.source == self.source
                and other.target == self.target and other.matrix == self.matrix)

    def __repr__(self):
        return f"AlgHom({self.source!r} -> {self.target!r})"


def hom_check(matrix: Matrix, source: FinAlg, target: FinAlg) -> AlgHom:
    """Validate a matrix as an algebra homomorphism (raises NotAHom)."""
    h = AlgHom(source, target, matrix)
    h.verify()
    return h


def is_surjective(h: AlgHom) -> bool:
    return rank(h.matrix) == h.target.dim


def kernel(h: AlgHom) -> Ideal:
    space = Subspace(h.source.field, h.source.dim,
                     nullspace(h.matrix).data)
    return Ideal(h.source, space, "twosided")


# -- quotients ----------------------------------------------------------------

def quotient(a: FinAlg, ideal: Ideal):
    """Quotient algebra and the canonical surjection.

    The quotient basis is the set of non-pivot coordinates of the ideal's
    reduced-echelon basis, so the construction is deterministic.
    """
    if ideal.ambient != a:
        raise AmbientMismatch("ideal belongs to a different algebra")
    if ideal.sidedness != "twosided":
        raise BadSpec("quotients need a twosided ideal")
    if ideal.dim == a.dim:
        raise ImproperIdeal("cannot divide by the whole algebra")
    K = a.field
    space = ideal.space
    keep = [c for c in range(a.dim) if c not in space.pivots]
    qdim = len(keep)

    def project(v):
        red = space.reduce(v)
        return tuple(red[c] for c in keep)

    def lift(w):
        out = [K.zero] * a.dim
        for c, x in zip(keep, w):
            out[c] = x
        return tuple(out)

    entries = []
    for i in range(qdim):
        for j in range(qdim):
            prod = project(a.mul(lift(unit_vec(K, qdim, i)),
                                 lift(unit_vec(K, qdim, j))))
            for k, c in enumerate(prod):
                if not K.is_zero(c):
                    entries.append((i, j, k, c))
    labels = [a.labels[c] for c in keep]
    q = _trusted_algebra(K, labels, entries, project(a.unit))
    pmatrix = Matrix(K, zip(*[project(a.basis_element(i))
                              for i in range(a.dim)]), a.dim)
    return q, AlgHom(a, q, pmatrix)


def minimal_polynomial(a: FinAlg, v) -> Poly:
    """Monic minimal polynomial of an element, by growing the power sequence
    until it becomes linearly dependent."""
    K = a.field
    powers = [a.unit]
    span = Subspace(K, a.dim, [a.unit])
    while True:
        nxt = a.mul(powers[-1], v)
        if span.contains(nxt):
            break
        powers.append(nxt)
        span = Subspace(K, a.dim, powers)
    M = Matrix(K, zip(*powers), len(powers))
    sol = solve(M, nxt)
    coeffs = [K.neg(c) for c in sol] + [K.one]
    return Poly(K, coeffs)
