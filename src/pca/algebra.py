"""Finite-dimensional associative unital algebras given by structure constants.

Constructors only store their fields; each type's proof is its ``verify()``,
run on input from outside (``make_algebra``, ``hom_check``) and, through
``errors._internal``, on computed results.  The constructions below are
valid by construction and not re-proved.  All values are immutable by
convention and all operations are pure.
"""

from __future__ import annotations

import operator

from .errors import (AmbientMismatch, BadSpec, ImproperIdeal, NoUnit,
                     NotAHom, NotAnExtension, NotAnIdeal, NotAssociative)
from .fields import (Field, PrimeField, Rationals, SimpleExtension,
                     _over_common_denominator, check_same_field)
from .linalg import (Matrix, Subspace, apply_map, compose, first_difference,
                     identity_map, solve, solve_maps, unit_vec, vec_add,
                     vec_scale, vec_sub, zero_vec)


class FinAlg:
    """Associative unital algebra on a labelled basis.

    ``rows[i][j]`` holds the nonzero structure constants of e_i * e_j as a
    tuple of (k, scalar) pairs; e_i * e_j = sum_k c * e_k.
    """

    __slots__ = ("field", "dim", "labels", "rows", "unit", "_gens")

    def __init__(self, field: Field, labels, rows, unit):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.rows = rows
        self.unit = tuple(unit)
        self._gens = None

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
        """u v by the cells of the table.  Over Q, u = U/du and v = V/dv
        with integer vectors U and V, so the products and sums run on ints
        (on Rationals only where a structure constant is one) and each
        coordinate is divided by du dv once, on the way out."""
        K = self.field
        q = isinstance(K, Rationals)
        if q:
            u, du = _over_common_denominator(u)
            v, dv = _over_common_denominator(v)
            add, mul, is_zero = operator.add, operator.mul, operator.not_
        else:
            add, mul, is_zero = K.add, K.mul, K.is_zero
        acc = [K.zero] * self.dim
        vnz = [(j, cj) for j, cj in enumerate(v) if not is_zero(cj)]
        for i, ci in enumerate(u):
            if is_zero(ci):
                continue
            row = self.rows[i]
            for j, cj in vnz:
                cell = row.get(j)
                if not cell:
                    continue
                cc = mul(ci, cj)
                for k, c in cell:
                    acc[k] = add(acc[k], mul(cc, c))
        if q:
            d = du * dv
            return tuple(a if d == 1 and type(a) is int else K.div(a, d)
                         for a in acc)
        return tuple(acc)

    def product_basis(self, i: int, j: int):
        K = self.field
        out = [K.zero] * self.dim
        for k, c in self.rows[i].get(j, ()):
            out[k] = c
        return tuple(out)

    # -- validation ---------------------------------------------------------

    def generators(self):
        """Basis indices G such that the right-nested products
        g1 (g2 (... (gk x))), with every gi in G, k >= 0 and x either 1 or
        in G, span the algebra; found once and cached.

        Greedy: from span{1}, add the first basis element e_g outside the
        span to G, close the span with e_g (not e_g 1, so it grows even
        where the unit law fails) under left multiplication by G, and
        repeat.  The span is closed under the earlier generators, so one
        ``Subspace.extend`` by e_g and the span's image under L_g does it."""
        if self._gens is not None:
            return self._gens
        gens, lefts = [], []
        span = Subspace(self.field, self.dim, [self.unit])
        for i in range(self.dim):
            if span.dim == self.dim:
                break
            e = self.basis_element(i)
            if span.contains(e):
                continue
            gens.append(i)
            lefts.append(_mult_map(self, e, "left"))
            span = span.extend([e, *span.image(lefts[-1:]).basis], lefts)
        self._gens = tuple(gens)
        return self._gens

    def _unit_failure(self):
        """The least column where L_u or R_u is not the identity, or None."""
        K = self.field
        ident = identity_map(K, self.dim)
        bad = [first_difference(K, _mult_map(self, self.unit, side), ident)
               for side in ("left", "right")]
        return min((i for i in bad if i is not None), default=None)

    def _failing_triple(self, middles):
        """The first (i, j, k) in (i, j, k) order, with j in ``middles``,
        where (e_i e_j) e_k != e_i (e_j e_k), or None: for each (i, j), the
        least column k where L_(e_i e_j) and L_(e_i) L_(e_j) differ (the
        columns of L_g are ``rows[g]``)."""
        K, rows = self.field, self.rows
        for i in range(self.dim):
            for j in middles:
                left = (_mult_map(self, self.product_basis(i, j), "left")
                        if j in rows[i] else {})
                k = first_difference(K, left, compose(K, rows[i], rows[j]))
                if k is not None:
                    return i, j, k
        return None

    def _generator_proof(self):
        """True when the unit laws hold and so do the triples (e_i, g, e_k)
        for every g in ``generators()`` (Light's associativity test)."""
        return (self._unit_failure() is None
                and self._failing_triple(self.generators()) is None)

    def verify(self):
        """Check the unit laws, L_u = id = R_u, and associativity, each an
        equality of sparse maps compared by ``linalg.first_difference``.

        Light's test: the m with (x m) y = x (m y) for all x, y form a
        subspace closed under products, and it holds 1 once the unit laws
        do.  The right-nested words over ``generators()`` span the
        algebra, so the unit laws and L_(e_i g) = L_(e_i) L_g for every i
        and g in G prove associativity.  On any failure the comparison
        runs for every middle index, so the first failing triple is the
        one reported, and NotAssociative comes before NoUnit."""
        if len(self.unit) != self.dim:
            raise BadSpec("unit vector has wrong length")
        if self._generator_proof():
            return True
        bad = self._failing_triple(range(self.dim))
        if bad is not None:
            i, j, k = bad
            raise NotAssociative(f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})", bad)
        raise NoUnit(f"unit law fails on basis element {self._unit_failure()}")

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
        if other is self:
            return True
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
    """The u with u e_j = e_j = e_j u for every j: R_j u = e_j and
    L_j u = e_j, stated by the maps."""
    es = [probe.basis_element(j) for j in range(probe.dim)]
    u = solve_maps(probe.field, probe.dim,
                   [_mult_map(probe, e, side) for e in es
                    for side in ("right", "left")],
                   [e for e in es for _ in range(2)])
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


def _matrix_units(field: Field, pos) -> FinAlg:
    """The span of the matrix units E_ij, (i, j) in ``pos``, under
    E_ij E_jl = E_il; ``pos`` holds every (i, i), and (i, l) whenever it
    holds (i, j) and (j, l)."""
    idx = {p: a for a, p in enumerate(pos)}
    entries = [(a, b, idx[i, l], field.one) for (i, j), a in idx.items()
               for (k, l), b in idx.items() if j == k]
    unit = [field.one if i == j else field.zero for i, j in pos]
    return _trusted_algebra(field, [f"E{i + 1}{j + 1}" for i, j in pos],
                            entries, unit)


def matrix_algebra(n: int, field: Field) -> FinAlg:
    """Full matrix algebra M_n with the E_ij basis."""
    if n < 1:
        raise BadSpec("matrix degree must be >= 1")
    return _matrix_units(field, [(i, j) for i in range(n) for j in range(n)])


def triangular_algebra(n: int, field: Field) -> FinAlg:
    """Upper triangular n x n matrices."""
    return _matrix_units(field, [(i, j) for i in range(n)
                                 for j in range(i, n)])


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
        """Check closure under the declared multiplications: closing the
        basis under ``_mult_maps`` must add nothing, and then costs one
        product per basis row and map, in one elimination."""
        if ideal_closure(self.ambient, self.space.basis,
                         self.sidedness).dim != self.dim:
            raise NotAnIdeal(f"subspace is not a {self.sidedness} ideal")
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


def _mult_maps(a: FinAlg, sidedness) -> list:
    """The multiplications by e_g, g in ``a.generators()``, on the declared
    sides.  The x with x S in S (or S x in S) form a subalgebra holding 1,
    so a subspace S closed under these maps is closed under all of ``a``."""
    return [_mult_map(a, a.basis_element(g), side) for g in a.generators()
            for side in ("left", "right") if sidedness in (side, "twosided")]


def _mult_map(a: FinAlg, v, side):
    """The sparse columns of L_v (left) or R_v (right), the map format of
    ``linalg``: column j holds the (k, scalar) pairs of v e_j or e_j v.
    For a basis element e_g, L_g's columns are ``a.rows[g]`` itself.  Over
    Q and F_p the sums run on ints, each reduced mod p once."""
    K, rows = a.field, a.rows
    add, mul = ((operator.add, operator.mul)
                if isinstance(K, (Rationals, PrimeField)) else (K.add, K.mul))
    p = K.p if isinstance(K, PrimeField) else 0
    nz = [(i, c) for i, c in enumerate(v) if not K.is_zero(c)]
    if side == "left" and len(nz) == 1 and nz[0][1] == K.one:
        return rows[nz[0][0]]
    acc = {}
    for i, c in nz:
        cells = (rows[i].items() if side == "left" else
                 [(j, row[i]) for j, row in enumerate(rows) if i in row])
        for j, cell in cells:
            col = acc.setdefault(j, {})
            for k, d in cell:
                x = mul(c, d)
                col[k] = add(col[k], x) if k in col else x
    return {j: tuple([(k, r) for k, x in col.items()
                      if not K.is_zero(r := x % p if p else x)])
            for j, col in acc.items()}


def _map_sub(K: Field, f, g):
    """f - g in the map format of ``linalg``: each column of f followed by
    the negated entries of g's, which ``linalg`` adds up."""
    return {j: (*f.get(j, ()), *((k, K.neg(c)) for k, c in g.get(j, ())))
            for j in f.keys() | g.keys()}


def ideal_closure(a: FinAlg, generators, sidedness="twosided") -> Ideal:
    """Smallest subspace containing the generators and closed under the
    declared actions: one ``Subspace.extend`` of the zero space by the
    generators under ``_mult_maps``."""
    space = Subspace.zero(a.field, a.dim).extend(
        generators, _mult_maps(a, sidedness))
    return Ideal(a, space, sidedness)


# -- homomorphisms ------------------------------------------------------------

class AlgHom:
    """A linear map that is a unital algebra homomorphism, held as its
    sparse columns ``map`` (the map format of ``linalg``): column j lists
    the (k, scalar) pairs of the image of source basis element j."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: FinAlg, target: FinAlg, f):
        check_same_field(source.field, target.field)
        self.source = source
        self.target = target
        self.map = f

    def _failing_pair(self, rights):
        """The first (i, j) in (i, j) order, with j in ``rights``, where
        phi(e_i e_j) != phi(e_i) phi(e_j), or None: for each j, the least
        column i where phi R_(e_j) and R_(phi(e_j)) phi differ."""
        src, K, phi = self.source, self.source.field, self.map
        bad = []
        for j in rights:
            R = _mult_map(self.target, self.apply(src.basis_element(j)),
                          "right")
            Rj = _mult_map(src, src.basis_element(j), "right")
            i = first_difference(K, compose(K, phi, Rj), compose(K, R, phi))
            if i is not None:
                bad.append((i, j))
        return min(bad, default=None)

    def verify(self):
        """phi(1) = 1 and phi R_g = R_(phi(g)) phi for every g in
        ``source.generators()``, sparse maps compared by
        ``linalg.first_difference``.  With source and target associative,
        the b with phi(x b) = phi(x) phi(b) for all x form a subalgebra
        holding 1 and G, hence all of the source.  On a failure the
        comparison runs for every basis element, naming the first pair."""
        if self.apply(self.source.unit) != self.target.unit:
            raise NotAHom("phi(1) != 1")
        if self._failing_pair(self.source.generators()) is None:
            return True
        i, j = self._failing_pair(range(self.source.dim))
        raise NotAHom(f"phi(e{i}*e{j}) != phi(e{i})*phi(e{j})", (i, j))

    def apply(self, v):
        return apply_map(self.source.field, self.map, v, self.target.dim)

    def compose(self, inner: "AlgHom") -> "AlgHom":
        """self after inner."""
        if inner.target != self.source:
            raise BadSpec("composition mismatch")
        return AlgHom(inner.source, self.target,
                      compose(self.source.field, self.map, inner.map))

    def __eq__(self, other):
        return (isinstance(other, AlgHom) and other.source == self.source
                and other.target == self.target
                and first_difference(self.source.field, self.map,
                                     other.map) is None)

    def __repr__(self):
        return f"AlgHom({self.source!r} -> {self.target!r})"


def _checked_map(matrix: Matrix, source: FinAlg, target: FinAlg):
    """The columns of a file's target.dim x source.dim hom matrix."""
    if matrix.rows != target.dim or matrix.cols != source.dim:
        raise BadSpec("hom matrix has wrong shape")
    return matrix.to_map()


def hom_check(matrix: Matrix, source: FinAlg, target: FinAlg) -> AlgHom:
    """Validate a matrix as an algebra homomorphism (raises NotAHom)."""
    h = AlgHom(source, target, _checked_map(matrix, source, target))
    h.verify()
    return h


def is_surjective(h: AlgHom) -> bool:
    """rank h = dim target, as dim Ker h = dim source - dim target."""
    return kernel(h).dim == h.source.dim - h.target.dim


def kernel(h: AlgHom) -> Ideal:
    space = Subspace.kernel(h.source.field, h.source.dim, [h.map])
    return Ideal(h.source, space, "twosided")


# -- quotients ----------------------------------------------------------------

def quotient(a: FinAlg, ideal: Ideal):
    """Quotient algebra and the canonical surjection.

    The quotient basis is the set of non-pivot coordinates of the ideal's
    reduced-echelon basis, so the construction is deterministic.  Its
    table holds the residues of the kept cells ``a.rows[i][j]`` (e_i e_j).
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
    at = {c: k for k, c in enumerate(keep)}

    def project(f):
        # a residue has no entry at a pivot, so its indices are kept ones
        return {j: tuple((at[k], c) for k, c in col)
                for j, col in space.residue(f).items()}

    entries = [(i, at[j], k, c) for i, ci in enumerate(keep)
               for j, col in project({j: cell for j, cell in
                                      a.rows[ci].items() if j in at}).items()
               for k, c in col]
    proj = project(identity_map(K, a.dim))
    q = _trusted_algebra(K, [a.labels[c] for c in keep], entries,
                         apply_map(K, proj, a.unit, len(keep)))
    return q, AlgHom(a, q, proj)


def _block_krylov(a: FinAlg, e, z):
    """(mu, powers): the monic minimal polynomial mu of z inside the block
    with unit e, and the powers e, ez, ..., ez^(deg mu - 1), grown until
    the next one depends on them."""
    K = a.field
    powers = [e]
    span = Subspace(K, a.dim, [e])
    while True:
        nxt = a.mul(powers[-1], z)
        if span.contains(nxt):
            break
        powers.append(nxt)
        span = span.extend([nxt])
    sol = solve(Matrix(K, zip(*powers), len(powers)), nxt)
    from .poly import Poly
    return Poly(K, [K.neg(c) for c in sol] + [K.one]), powers


def minimal_polynomial(a: FinAlg, v) -> Poly:
    """Monic minimal polynomial of an element of a."""
    return _block_krylov(a, a.unit, v)[0]
