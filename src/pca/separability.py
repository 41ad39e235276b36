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
solution.  The system is stated by its maps, and ``linalg`` forms its
rows.  "Not separable" is the value None, certified by an inconsistent
linear system.  Every solution is re-verified by substitution.

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

from .algebra import FinAlg, _map_sub, _mult_map, base_change
from .errors import (BadSpec, InternalVerificationFailed, NotADerivation,
                     _internal)
from .fields import PrimeField, Rationals
from .linalg import (Matrix, Subspace, apply_map, solve_maps, vec_is_zero,
                     vec_sub)
from .radical import is_semisimple as _is_semisimple


class SepIdempotent:
    """An element p of A (x) A with m(p) = 1 and ap = pa."""

    def __init__(self, algebra: FinAlg, tensor_coeffs: tuple, pairs: list):
        self.algebra = algebra
        # length dim^2, index s*dim + t for e_s (x) e_t
        self.tensor_coeffs = tensor_coeffs
        # [(left, right)] with p = sum left_i (x) right_i
        self.pairs = pairs


def _tensor_map(A: FinAlg, g: int, side):
    """L_g (x) I (left), x -> (e_g (x) 1) x, or I (x) R_g (right),
    x -> x (1 (x) e_g), on A (x) A with index s n + t for e_s (x) e_t, as
    sparse columns lifted from those of ``_mult_map(A, e_g, side)``."""
    n = A.dim
    f = _mult_map(A, A.basis_element(g), side)
    if side == "left":
        return {s * n + t: tuple((k * n + t, c) for k, c in col)
                for s, col in f.items() for t in range(n)}
    return {s * n + t: tuple((s * n + k, c) for k, c in col)
            for t, col in f.items() for s in range(n)}


def _tensor_action(A: FinAlg, side):
    """(i, v) -> (e_i (x) 1) v (left) or v (1 (x) e_i) (right)."""
    K, N = A.field, A.dim * A.dim
    maps = [_tensor_map(A, i, side) for i in range(A.dim)]
    return lambda i, v: apply_map(K, maps[i], v, N)


def _sep_maps(A: FinAlg, gens):
    """The maps of the separability system: m: A (x) A -> A, whose column
    s n + t is the table's cell of e_s e_t, then L_g (x) I - I (x) R_g for
    each g in ``gens``."""
    n = A.dim
    m = {s * n + t: cell for s, row in enumerate(A.rows)
         for t, cell in row.items()}
    return [m] + [_map_sub(A.field, _tensor_map(A, g, "left"),
                           _tensor_map(A, g, "right")) for g in gens]


def verify_sep_idempotent(A: FinAlg, coeffs, maps=None) -> bool:
    """m(p) = 1, and (e_g (x) 1) p = p (1 (x) e_g) for every g in
    ``A.generators()``, by applying the maps to p (``maps``, when the
    caller has already built ``_sep_maps(A, A.generators())``).  The a
    with (a (x) 1) p = p (1 (x) a) form a subalgebra holding 1, so holding
    G they are all of A."""
    K, n = A.field, A.dim
    m, *laws = _sep_maps(A, A.generators()) if maps is None else maps
    return (apply_map(K, m, coeffs, n) == A.unit and
            all(vec_is_zero(K, apply_map(K, f, coeffs, n * n))
                for f in laws))


def sep_idempotent(A: FinAlg):
    """Solve for a separability idempotent; None certifies there is none.

    The system is m(p) = 1 and, for each g in G = ``A.generators()``,
    (L_g (x) I - I (x) R_g) p = 0, stated by its maps (``_sep_maps``),
    whose rows ``linalg`` forms.  The a with (a (x) 1) p = p (1 (x) a)
    form a subalgebra holding 1, so the equations on G have the solutions
    of those on every basis element; the system's RREF, and the canonical
    solution read off it, are the same."""
    K = A.field
    n = A.dim
    maps = _sep_maps(A, A.generators())
    sol = solve_maps(K, n * n, maps, [A.unit])
    if sol is None:
        return None
    if not verify_sep_idempotent(A, sol, maps):
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

    maps = [_map_sub(K, T.left[i].to_map(), T.right[i].to_map())
            for i in range(B.dim)]

    def satisfies(u):
        return all(apply_map(K, f, u, T.space_dim) == want
                   for f, want in zip(maps, dcols))

    p = sep_idempotent(B)
    if p is not None:
        u = (K.zero,) * T.space_dim
        for left, right in p.pairs:
            term = T.right_of(right).apply(d.apply(left))
            u = tuple(K.sub(x, y) for x, y in zip(u, term))
        if satisfies(u):
            return u
    u = solve_maps(K, T.space_dim, maps, dcols)
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
    kspace = Subspace.kernel(A.field, A.dim * A.dim, _sep_maps(A, ()))
    T = induced_bimodule(A, kspace, _tensor_action(A, "left"),
                         _tensor_action(A, "right"))
    return T, kspace


def universal_derivation_check(A: FinAlg) -> bool:
    """Verify the round trip: the map a -> 1 (x) a - a (x) 1 into Ker(m) is
    inner exactly when A is separable, and the inner element u reconstructs
    the separability idempotent 1 (x) 1 + u."""
    K = A.field
    n = A.dim
    T, kspace = multiplication_kernel_bimodule(A)
    left, right = _tensor_action(A, "left"), _tensor_action(A, "right")
    one_one = tuple(K.mul(a, b) for a in A.unit for b in A.unit)
    dcols = []
    for i in range(n):
        # d(e_i) = 1 (x) e_i - e_i (x) 1 = (1 (x) 1) e_i - e_i (1 (x) 1)
        cv = kspace.coords(vec_sub(K, right(i, one_one), left(i, one_one)))
        if cv is None:
            raise InternalVerificationFailed(
                "universal derivation misses the kernel")
        dcols.append(cv)
    u = _internal(inner_derivation, A, T, Matrix(K, zip(*dcols), n))
    if u is None:
        return False
    ubig = kspace.from_coords(u)
    if not verify_sep_idempotent(A, tuple(K.add(a, b)
                                          for a, b in zip(one_one, ubig))):
        raise InternalVerificationFailed(
            "1 (x) 1 + u is not a separability idempotent")
    return True
