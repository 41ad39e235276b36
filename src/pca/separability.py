"""Separability idempotents, bimodules and inner derivations.

Separability is decided by pure linear algebra: solve m(p) = 1 together
with (a (x) 1) p = p (1 (x) a) for all basis a in the dim^2 unknowns of
p in A (x) A.  "Not separable" is the value None, certified by an
inconsistent linear system.  Every solution is re-verified by direct
substitution before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinAlg, base_change
from .errors import (BadSpec, InternalVerificationFailed, NotADerivation)
from .fields import PrimeField, Rationals
from .linalg import Matrix, Subspace, nullspace, solve, vec_is_zero
from .radical import is_semisimple as _is_semisimple


@dataclass
class SepIdempotent:
    """An element p of A (x) A with m(p) = 1 and ap = pa."""
    algebra: FinAlg
    tensor_coeffs: tuple       # length dim^2, index s*dim + t for e_s (x) e_t
    pairs: list                # [(left, right)] with p = sum left_i (x) right_i


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


def _mult_map(A: FinAlg, v):
    """m(v) for v in A (x) A."""
    K = A.field
    n = A.dim
    out = [K.zero] * n
    for st, c in enumerate(v):
        if K.is_zero(c):
            continue
        s, t = divmod(st, n)
        for k, cc in A.rows[s].get(t, ()):
            out[k] = K.add(out[k], K.mul(c, cc))
    return tuple(out)


def verify_sep_idempotent(A: FinAlg, coeffs) -> bool:
    """Both defining equations, checked by direct substitution."""
    if _mult_map(A, coeffs) != A.unit:
        return False
    K = A.field
    for i in range(A.dim):
        left = _tensor_mul_left(A, i, coeffs)
        right = _tensor_mul_right(A, coeffs, i)
        if left != right:
            return False
    return True


def sep_idempotent(A: FinAlg):
    """Solve for a separability idempotent; None certifies there is none."""
    K = A.field
    n = A.dim
    N = n * n
    rows = {}

    def add_row(row, rhs):
        key = (tuple(row), rhs)
        rows.setdefault(key, None)

    # m(p) = 1
    for k in range(n):
        row = [K.zero] * N
        for s in range(n):
            for t, cell in A.rows[s].items():
                for kk, c in cell:
                    if kk == k:
                        row[s * n + t] = K.add(row[s * n + t], c)
        add_row(row, A.unit[k])
    # (e_i (x) 1) p - p (1 (x) e_i) = 0, coefficient of e_g (x) e_h
    for i in range(n):
        cols = {}
        for s in range(n):
            for g, c in A.rows[i].get(s, ()):
                for t in range(n):
                    cols.setdefault((g, t), {}).setdefault(s * n + t, [])\
                        .append(c)
        for t in range(n):
            for h, c in A.rows[t].get(i, ()):
                for s in range(n):
                    cols.setdefault((s, h), {}).setdefault(s * n + t, [])\
                        .append(K.neg(c))
        for (g, h), terms in sorted(cols.items()):
            row = [K.zero] * N
            nonzero = False
            for st, cs in terms.items():
                acc = K.zero
                for c in cs:
                    acc = K.add(acc, c)
                row[st] = acc
                if not K.is_zero(acc):
                    nonzero = True
            if nonzero:
                add_row(row, K.zero)
    mat = [list(row) for row, _ in rows]
    rhs = [r for _, r in rows]
    sol = solve(Matrix(K, mat, N), tuple(rhs))
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
    cur = tuple(x)
    for m in range(1, A.dim + 1):
        if m == 1:
            pass
        else:
            cur = A.mul(cur, tuple(x))
        if vec_is_zero(K, cur):
            return m
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

    def act_left(self, a, t):
        return self.left_of(a).apply(t)

    def act_right(self, t, a):
        return self.right_of(a).apply(t)

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

    d is given as a matrix whose columns are the images of the basis.  The
    closed form u = sum d(l_r)*r_r read off a separability idempotent
    p = sum l_r (x) r_r is tried first (both signs) and never trusted
    without the exact substitution check; otherwise the defining linear
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
            u = tuple(K.add(x, y) for x, y in zip(u, term))
        if satisfies(u):
            return u
        u_neg = tuple(K.neg(x) for x in u)
        if satisfies(u_neg):
            return u_neg
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


def multiplication_kernel_bimodule(A: FinAlg):
    """Ker(m) inside A (x) A as a bimodule, together with the coordinate
    subspace used to express its elements."""
    K = A.field
    n = A.dim
    N = n * n
    mrows = []
    for k in range(n):
        row = [K.zero] * N
        for s in range(n):
            for t, cell in A.rows[s].items():
                for kk, c in cell:
                    if kk == k:
                        row[s * n + t] = K.add(row[s * n + t], c)
        mrows.append(row)
    kspace = Subspace(K, N, nullspace(Matrix(K, mrows, N)).data)
    left = []
    right = []
    for i in range(n):
        lcols = []
        rcols = []
        for v in kspace.basis:
            w = _tensor_mul_left(A, i, v)
            cw = kspace.coords(w)
            if cw is None:
                raise InternalVerificationFailed("kernel not left-stable")
            lcols.append(cw)
            w = _tensor_mul_right(A, v, i)
            cw = kspace.coords(w)
            if cw is None:
                raise InternalVerificationFailed("kernel not right-stable")
            rcols.append(cw)
        left.append(Matrix(K, zip(*lcols), kspace.dim))
        right.append(Matrix(K, zip(*rcols), kspace.dim))
    T = Bimodule(A, left, right)
    return T, kspace


def universal_derivation_check(A: FinAlg) -> bool:
    """Verify the round trip: the map a -> 1 (x) a - a (x) 1 into Ker(m) is
    inner, and the inner element reconstructs a separability idempotent
    1 (x) 1 -+ u."""
    if sep_idempotent(A) is None:
        return False
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
    u = inner_derivation(A, T, Matrix(K, zip(*dcols), n))
    if u is None:
        return False
    ubig = kspace.from_coords(u)
    one_one = [K.zero] * (n * n)
    for s in range(n):
        for t in range(n):
            one_one[s * n + t] = K.mul(A.unit[s], A.unit[t])
    for sign in (K.neg(K.one), K.one):
        cand = tuple(K.add(a, K.mul(sign, b)) for a, b in zip(one_one, ubig))
        if verify_sep_idempotent(A, cand):
            return True
    return False
