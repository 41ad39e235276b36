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
from .linalg import (Subspace, apply_map, compose, first_difference,
                     identity_map, map_of, solve_maps, vec_is_zero)
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
    A._check(x)
    cur = x
    for m in range(1, A.dim + 1):
        if vec_is_zero(K, cur):
            return m
        cur = A.mul(cur, x)
    return None


def _combination(K, maps, v):
    """sum_t c maps[t] over the (t, c) pairs of v, in the map format of
    ``linalg`` (repeated indices left for it to add up)."""
    out = {}
    for t, c in v:
        for j, col in maps[t].items():
            out.setdefault(j, []).extend((k, K.mul(c, d)) for k, d in col)
    return out


class Bimodule:
    """A two-sided action of an algebra on a space of dimension
    ``space_dim``: ``left[i]`` and ``right[i]`` are the sparse column maps
    (the map format of ``linalg``) by which e_i acts.  The left action is
    a unital representation, the right action a unital
    anti-representation, and they commute; ``verify`` checks these laws."""

    __slots__ = ("algebra", "space_dim", "left", "right")

    def __init__(self, algebra: FinAlg, space_dim: int, left, right):
        self.algebra, self.space_dim = algebra, space_dim
        self.left, self.right = list(left), list(right)
        if len(self.left) != algebra.dim or len(self.right) != algebra.dim:
            raise BadSpec("one action map required per basis element")

    def _failing_law(self, middles):
        """The first (i, j, law) in that order, with j in ``middles``, where
        lambda(e_i e_j) != lambda(e_i) lambda(e_j) (law 0),
        rho(e_i e_j) != rho(e_j) rho(e_i) (law 1) or
        lambda(e_i) rho(e_j) != rho(e_j) lambda(e_i) (law 2), or None."""
        A, K = self.algebra, self.algebra.field
        lam, rho = self.left, self.right
        for i in range(A.dim):
            for j in middles:
                cell = A.rows[i].get(j, ())
                laws = ((_combination(K, lam, cell),
                         compose(K, lam[i], lam[j])),
                        (_combination(K, rho, cell),
                         compose(K, rho[j], rho[i])),
                        (compose(K, lam[i], rho[j]),
                         compose(K, rho[j], lam[i])))
                for law, (f, g) in enumerate(laws):
                    if first_difference(K, f, g) is not None:
                        return i, j, law
        return None

    def verify(self):
        """lambda(1) = id = rho(1), and the three laws of ``_failing_law``
        at (e_i, g) for every i and g in ``algebra.generators()``, sparse
        maps compared by ``linalg.first_difference``.  Light's argument, as
        in ``FinAlg.verify``: with the algebra associative, the b for which
        a law holds at every (e_i, b) form a subalgebra holding 1 (for the
        commuting law, once rho is an anti-representation), so holding G
        they are the whole algebra.  On a failure the laws are checked at
        every pair, naming the first failing one."""
        A, K = self.algebra, self.algebra.field
        unit = map_of(K, [A.unit])[0]
        for side, acts in (("left", self.left), ("right", self.right)):
            if first_difference(K, _combination(K, acts, unit),
                                identity_map(K, self.space_dim)) is not None:
                raise BadSpec(f"{side} action is not unital")
        if self._failing_law(A.generators()) is None:
            return True
        i, j, law = self._failing_law(range(A.dim))
        raise BadSpec(("left action not multiplicative",
                       "right action not anti-multiplicative",
                       "actions do not commute")[law] + f" at ({i},{j})")


def _leibniz_failure(B: FinAlg, T: Bimodule, d, middles):
    """The first (i, j) in (i, j) order, with j in ``middles``, where
    d(e_i e_j) != e_i.d(e_j) + d(e_i).e_j, or None: for each j, the least
    column i where d R_(e_j) and rho(e_j) d plus e_i -> lambda(e_i) d(e_j)
    differ."""
    K = B.field
    bad = []
    for j in middles:
        lhs = compose(K, d, _mult_map(B, B.basis_element(j), "right"))
        rhs = compose(K, T.right[j], d)
        for i, lam in enumerate(T.left):
            rhs[i] = (*rhs.get(i, ()), *compose(K, lam, {0: d.get(j, ())})[0])
        i = first_difference(K, lhs, rhs)
        if i is not None:
            bad.append((i, j))
    return min(bad, default=None)


def inner_derivation(B: FinAlg, T: Bimodule, d):
    """Find u in T with d(b) = b*u - u*b, or None when no such u exists.

    d is the map B -> T given by its sparse columns, the images of the
    basis.  The Leibniz rule is proved at (e_i, g) for g in
    ``B.generators()``, with d(1) = 0: for a bimodule T and an associative
    B, the b with d(a b) = a.d(b) + d(a).b for every a form a subalgebra
    that holds 1, hence all of B.  On a failure every pair is checked,
    naming the first failing one.  When B has a separability idempotent
    p = sum l_r (x) r_r, the closed form u = -sum rho(r_r) d(l_r) is
    returned once it passes the exact substitution check (b.u - u.b = d(b)
    holds by the Leibniz rule and bp = pb, so it fails only if T is not a
    bimodule); otherwise the defining linear system is solved directly.
    Either answer is substituted into every equation before it is
    returned."""
    K, n, m = B.field, B.dim, T.space_dim
    if (not vec_is_zero(K, apply_map(K, d, B.unit, m))
            or _leibniz_failure(B, T, d, B.generators()) is not None):
        bad = _leibniz_failure(B, T, d, range(n))
        if bad is not None:
            raise NotADerivation(f"Leibniz fails at basis pair ({bad[0]},"
                                 f"{bad[1]})", bad)
    maps = [_map_sub(K, lam, rho) for lam, rho in zip(T.left, T.right)]
    dcols = [apply_map(K, d, B.basis_element(i), m) for i in range(n)]

    def satisfies(u):
        return all(apply_map(K, f, u, m) == want
                   for f, want in zip(maps, dcols))

    p = sep_idempotent(B)
    if p is not None:
        # sum rho(r_r) d(l_r): the map e_s (x) e_t -> rho(e_t) d(e_s),
        # applied to the coordinates of p
        rd = [compose(K, rho, d) for rho in T.right]
        psi = {s * n + t: rd[t].get(s, ()) for s in range(n) for t in range(n)}
        u = tuple(map(K.neg, apply_map(K, psi, p.tensor_coeffs, m)))
        if satisfies(u):
            return u
    u = solve_maps(K, m, maps, dcols)
    if u is None:
        return None
    if not satisfies(u):
        raise InternalVerificationFailed("solved u fails the inner equation")
    return u


def induced_bimodule(B: FinAlg, space: Subspace, left, right) -> Bimodule:
    """The bimodule on ``space`` in which e_i acts by the maps ``left[i]``
    and ``right[i]`` of the ambient space, restricted to ``space`` in its
    coordinates.  The bimodule laws are the caller's to know; an image
    that leaves ``space`` raises."""
    left, right = ([space.restrict(f) for f in fs] for fs in (left, right))
    if None in left or None in right:
        raise InternalVerificationFailed(
            "subspace is not stable under the action")
    return Bimodule(B, space.dim, left, right)


def multiplication_kernel_bimodule(A: FinAlg):
    """Ker(m) inside A (x) A as a bimodule, together with the coordinate
    subspace used to express its elements."""
    kspace = Subspace.kernel(A.field, A.dim * A.dim, _sep_maps(A, ()))
    T = induced_bimodule(A, kspace, *(
        [_tensor_map(A, i, side) for i in range(A.dim)]
        for side in ("left", "right")))
    return T, kspace


def universal_derivation_check(A: FinAlg) -> bool:
    """Verify the round trip: the map a -> 1 (x) a - a (x) 1 into Ker(m) is
    inner exactly when A is separable, and the inner element u reconstructs
    the separability idempotent 1 (x) 1 + u."""
    K = A.field
    T, kspace = multiplication_kernel_bimodule(A)
    one_one = tuple(K.mul(a, b) for a in A.unit for b in A.unit)
    # d(e_i) = 1 (x) e_i - e_i (x) 1 = (1 (x) 1) e_i - e_i (1 (x) 1)
    d = kspace.coordinates({i: tuple(enumerate(apply_map(K, _map_sub(
        K, _tensor_map(A, i, "right"), _tensor_map(A, i, "left")),
        one_one, len(one_one)))) for i in range(A.dim)})
    if d is None:
        raise InternalVerificationFailed(
            "universal derivation misses the kernel")
    u = _internal(inner_derivation, A, T, d)
    if u is None:
        return False
    ubig = kspace.from_coords(u)
    if not verify_sep_idempotent(A, tuple(K.add(a, b)
                                          for a, b in zip(one_one, ubig))):
        raise InternalVerificationFailed(
            "1 (x) 1 + u is not a separability idempotent")
    return True
