"""Separability idempotents, bimodules and inner derivations.

Separability is decided by pure linear algebra: solve m(p) = 1 together
with (a (x) 1) p = p (1 (x) a) in the dim^2 unknowns of p in A (x) A.
The second law is stated only for a = e_g with g in the generating set
G = ``A.generators()``, as (L_g (x) I - I (x) R_g) p = 0.  Nothing is lost:
for a fixed p, the a with (a (x) 1) p = p (1 (x) a) form a subspace that
holds 1 and is closed under products, as
(ab (x) 1) p = (a (x) 1) p (1 (x) b) = p (1 (x) ab), and a subalgebra that
holds G is all of A.  So the system on G has the solutions of the system
on every basis element, hence the same RREF and the same canonical
solution.  "Not separable" is the value None, certified by an
inconsistent linear system.  Every solution is re-verified by direct
substitution before being returned.

Two identities turn a separability idempotent into explicit answers, each
with one sign, and each answer is still checked by substitution:

* If p = sum l_r (x) r_r and d is a derivation into a bimodule T, put
  w = sum d(l_r) r_r.  By the Leibniz rule b.w = sum d(b l_r) r_r - d(b),
  and applying x (x) y -> d(x) y to bp = pb gives sum d(b l_r) r_r = w.b.
  So b.w - w.b = -d(b), and u = -w satisfies b.u - u.b = d(b).
* For the universal derivation d(a) = 1 (x) a - a (x) 1 into Ker(m),
  a (1 (x) 1) - (1 (x) 1) a = -d(a), so an inner u with a.u - u.a = d(a)
  makes 1 (x) 1 + u a separability idempotent.
"""

from __future__ import annotations

from .algebra import FinAlg, base_change
from .errors import (BadSpec, InternalVerificationFailed, NotADerivation,
                     _internal)
from .fields import PrimeField, Rationals
from .linalg import Matrix, Subspace, nullspace, solve, vec_is_zero
from .radical import is_semisimple as _is_semisimple


class SepIdempotent:
    """An element p of A (x) A with m(p) = 1 and ap = pa."""

    def __init__(self, algebra: FinAlg, tensor_coeffs: tuple, pairs: list):
        self.algebra = algebra
        # length dim^2, index s*dim + t for e_s (x) e_t
        self.tensor_coeffs = tensor_coeffs
        # [(left, right)] with p = sum left_i (x) right_i
        self.pairs = pairs


def _tensor_mul_left(A: FinAlg, i: int, v):
    """(e_i (x) 1) * v inside A (x) A, v given as a dim^2 vector."""
    K = A.field
    n = A.dim
    out = [K.zero] * (n * n)
    for st, c in enumerate(v):
        if K.is_zero(c):
            continue
        s, t = divmod(st, n)
        for g, cc in A.rows[i].get(s, ()):
            out[g * n + t] = K.add(out[g * n + t], K.mul(c, cc))
    return tuple(out)


def _tensor_mul_right(A: FinAlg, v, i: int):
    """v * (1 (x) e_i) inside A (x) A."""
    K = A.field
    n = A.dim
    out = [K.zero] * (n * n)
    for st, c in enumerate(v):
        if K.is_zero(c):
            continue
        s, t = divmod(st, n)
        for h, cc in A.rows[t].get(i, ()):
            out[s * n + h] = K.add(out[s * n + h], K.mul(c, cc))
    return tuple(out)


def _mult_rows(A: FinAlg):
    """The rows of the matrix of m: A (x) A -> A, one per basis element."""
    K = A.field
    n = A.dim
    rows = [[K.zero] * (n * n) for _ in range(n)]
    for s in range(n):
        for t, cell in A.rows[s].items():
            for k, c in cell:
                rows[k][s * n + t] = K.add(rows[k][s * n + t], c)
    return rows


def verify_sep_idempotent(A: FinAlg, coeffs) -> bool:
    """m(p) = 1, and (e_g (x) 1) p = p (1 (x) e_g) for every g in
    ``A.generators()``, by direct substitution.  The a with
    (a (x) 1) p = p (1 (x) a) form a subalgebra holding 1, so holding G
    they are all of A."""
    N = A.dim * A.dim
    if Matrix(A.field, _mult_rows(A), N).apply(coeffs) != A.unit:
        return False
    return all(_tensor_mul_left(A, g, coeffs) ==
               _tensor_mul_right(A, coeffs, g) for g in A.generators())


def sep_idempotent(A: FinAlg):
    """Solve for a separability idempotent; None certifies there is none.

    The system is m(p) = 1 and, for each g in G = ``A.generators()``,
    (L_g (x) I - I (x) R_g) p = 0: its row for the coefficient of
    e_h (x) e_k holds L_g[h][s] at column s n + k, minus R_g[k][t] at
    column h n + t.  The a with (a (x) 1) p = p (1 (x) a) form a subalgebra
    holding 1, so the equations on G have the solutions of those on every
    basis element; the system's RREF, and the canonical solution read off
    it, are the same."""
    K = A.field
    n = A.dim
    N = n * n
    rows = _mult_rows(A)
    rhs = list(A.unit)
    for g in A.generators():
        e = A.basis_element(g)
        R = A.right_mult_matrix(e).data
        for h, lrow in enumerate(A.left_mult_matrix(e).data):
            lo = h * n
            for k, rrow in enumerate(R):
                row = [K.zero] * N
                row[k::n] = lrow
                row[lo:lo + n] = map(K.sub, row[lo:lo + n], rrow)
                rows.append(row)
                rhs.append(K.zero)
    sol = solve(Matrix(K, rows, N), tuple(rhs))
    if sol is None:
        return None
    if not verify_sep_idempotent(A, sol):
        raise InternalVerificationFailed(
            "solver output failed the separability equations")
    pairs = []
    for s in range(n):
        right = tuple(sol[s * n + t] for t in range(n))
        if not vec_is_zero(K, right):
            pairs.append((A.basis_element(s), right))
    return SepIdempotent(A, tuple(sol), pairs)


def is_separable(A: FinAlg) -> bool:
    """True iff a separability idempotent exists.  Over the perfect fields
    Q and F_p this must agree with semisimplicity; the agreement is asserted
    as a cross-check."""
    sep = sep_idempotent(A) is not None
    if isinstance(A.field, (Rationals, PrimeField)):
        if sep != _is_semisimple(A):
            raise InternalVerificationFailed(
                "separability and semisimplicity disagree over a perfect field")
    return sep


def base_change_semisimple_check(A: FinAlg, E) -> bool:
    """is_semisimple after extending scalars to E; cross-validates
    is_separable on fields with a computable radical."""
    return _is_semisimple(base_change(A, E))


def nilpotent_witness(A: FinAlg, x):
    """Least m <= dim(A) with x^m = 0, else None."""
    K = A.field
    x = tuple(x)
    cur = x
    for m in range(1, A.dim + 1):
        if vec_is_zero(K, cur):
            return m
        cur = A.mul(cur, x)
    return None


class Bimodule:
    """A two-sided action of an algebra on a space: the left action is a
    unital representation, the right action a unital anti-representation,
    and they commute.  ``verify`` checks these laws."""

    __slots__ = ("algebra", "space_dim", "left", "right")

    def __init__(self, algebra: FinAlg, left, right):
        left = list(left)
        right = list(right)
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise BadSpec("one action matrix required per basis element")
        dim = left[0].rows
        for M in left + right:
            if M.rows != dim or M.cols != dim:
                raise BadSpec("action matrices must be square of equal size")
        self.algebra = algebra
        self.space_dim = dim
        self.left = left
        self.right = right

    def _lin(self, mats, v):
        K = self.algebra.field
        out = None
        for c, M in zip(v, mats):
            if K.is_zero(c):
                continue
            term = [[K.mul(c, a) for a in row] for row in M.data]
            if out is None:
                out = term
            else:
                out = [[K.add(x, y) for x, y in zip(r1, r2)]
                       for r1, r2 in zip(out, term)]
        if out is None:
            return Matrix.zero(K, self.space_dim, self.space_dim)
        return Matrix(K, out, self.space_dim)

    def left_of(self, v) -> Matrix:
        return self._lin(self.left, v)

    def right_of(self, v) -> Matrix:
        return self._lin(self.right, v)

    def verify(self):
        A = self.algebra
        K = A.field
        ident = Matrix.identity(K, self.space_dim)
        if self.left_of(A.unit) != ident:
            raise BadSpec("left action is not unital")
        if self.right_of(A.unit) != ident:
            raise BadSpec("right action is not unital")
        for i in range(A.dim):
            for j in range(A.dim):
                prod = A.product_basis(i, j)
                if self.left[i].mul(self.left[j]) != self.left_of(prod):
                    raise BadSpec(f"left action not multiplicative at ({i},{j})")
                if self.right[j].mul(self.right[i]) != self.right_of(prod):
                    raise BadSpec(
                        f"right action not anti-multiplicative at ({i},{j})")
                if self.left[i].mul(self.right[j]) != \
                        self.right[j].mul(self.left[i]):
                    raise BadSpec(f"actions do not commute at ({i},{j})")
        return True


def inner_derivation(B: FinAlg, T: Bimodule, d: Matrix):
    """Find u in T with d(b) = b*u - u*b, or None when no such u exists.

    d is given as a matrix whose columns are the images of the basis.  When
    B has a separability idempotent p = sum l_r (x) r_r, the closed form
    u = -sum d(l_r)*r_r is returned once it passes the exact substitution
    check (b.u - u.b = d(b) holds by the Leibniz rule and bp = pb, so it
    fails only if T is not a bimodule); otherwise the defining linear
    system is solved directly."""
    K = B.field
    if d.rows != T.space_dim or d.cols != B.dim:
        raise BadSpec("derivation matrix has wrong shape")
    dcols = d.columns()
    for i in range(B.dim):
        for j in range(B.dim):
            lhs = d.apply(B.product_basis(i, j))
            rhs = tuple(K.add(x, y) for x, y in zip(
                T.left[i].apply(dcols[j]), T.right[j].apply(dcols[i])))
            if lhs != rhs:
                raise NotADerivation(f"Leibniz fails at basis pair ({i},{j})",
                                     (i, j))

    def satisfies(u):
        for i in range(B.dim):
            want = dcols[i]
            got = tuple(K.sub(x, y) for x, y in zip(
                T.left[i].apply(u), T.right[i].apply(u)))
            if got != want:
                return False
        return True

    p = sep_idempotent(B)
    if p is not None:
        u = (K.zero,) * T.space_dim
        for left, right in p.pairs:
            term = T.right_of(right).apply(d.apply(left))
            u = tuple(K.sub(x, y) for x, y in zip(u, term))
        if satisfies(u):
            return u
    rows = []
    rhs = []
    for i in range(B.dim):
        diff = T.left[i].sub(T.right[i])
        rows.extend(diff.data)
        rhs.extend(dcols[i])
    u = solve(Matrix(K, rows, T.space_dim), tuple(rhs))
    if u is None:
        return None
    if not satisfies(u):
        raise InternalVerificationFailed("solved u fails the inner equation")
    return u


def induced_bimodule(B: FinAlg, space: Subspace, left, right) -> Bimodule:
    """The bimodule on ``space`` in which e_i acts by ``left(i, v)`` and
    ``right(i, v)``, in the coordinates of ``space``.  The bimodule laws are
    the caller's to know; an image that leaves ``space`` raises."""
    K = B.field

    def action(act, i):
        cols = []
        for v in space.basis:
            c = space.coords(act(i, v))
            if c is None:
                raise InternalVerificationFailed(
                    "subspace is not stable under the action")
            cols.append(c)
        return Matrix(K, zip(*cols), space.dim)

    return Bimodule(B, [action(left, i) for i in range(B.dim)],
                    [action(right, i) for i in range(B.dim)])


def multiplication_kernel_bimodule(A: FinAlg):
    """Ker(m) inside A (x) A as a bimodule, together with the coordinate
    subspace used to express its elements."""
    K = A.field
    N = A.dim * A.dim
    kspace = Subspace(K, N, nullspace(Matrix(K, _mult_rows(A), N)).data)
    T = induced_bimodule(A, kspace, lambda i, v: _tensor_mul_left(A, i, v),
                         lambda i, v: _tensor_mul_right(A, v, i))
    return T, kspace


def universal_derivation_check(A: FinAlg) -> bool:
    """Verify the round trip: the map a -> 1 (x) a - a (x) 1 into Ker(m) is
    inner exactly when A is separable, and the inner element u reconstructs
    the separability idempotent 1 (x) 1 + u."""
    K = A.field
    n = A.dim
    T, kspace = multiplication_kernel_bimodule(A)
    dcols = []
    for i in range(n):
        v = [K.zero] * (n * n)
        for s in range(n):
            us = A.unit[s]
            if not K.is_zero(us):
                v[s * n + i] = K.add(v[s * n + i], us)
                v[i * n + s] = K.sub(v[i * n + s], us)
        cv = kspace.coords(tuple(v))
        if cv is None:
            raise InternalVerificationFailed(
                "universal derivation misses the kernel")
        dcols.append(cv)
    u = _internal(inner_derivation, A, T, Matrix(K, zip(*dcols), n))
    if u is None:
        return False
    ubig = kspace.from_coords(u)
    one_one = [K.mul(a, b) for a in A.unit for b in A.unit]
    if not verify_sep_idempotent(A, tuple(K.add(a, b)
                                          for a, b in zip(one_one, ubig))):
        raise InternalVerificationFailed(
            "1 (x) 1 + u is not a separability idempotent")
    return True
