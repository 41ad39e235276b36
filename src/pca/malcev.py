"""Idempotent lifting, Wedderburn-Malcev splittings and their conjugacy.

The splitting A = S + J(A) is built by walking the radical filtration
J, J^2, ..., 0 and lifting a multiplicative section through each
square-zero layer: pick a linear lift, measure its multiplication defect,
and absorb the defect with a correction read off a separability
idempotent of A/J, with no linear solve.  Every lifted section is proved
a unital algebra homomorphism, and the final splitting proved, through
``errors._internal``.

The two corrections have one sign each:

* On a layer N with N^2 = 0, a linear lift t with t(1) = 1 has defect
  c(a, b) = t(ab) - t(a) t(b), a 2-cocycle:
  t(x) c(y, z) - c(xy, z) + c(x, yz) - c(x, y) t(z) = 0.  For a
  separability idempotent p = sum u_k (x) v_k of A/J put
  H(b) = sum_k t(u_k) c(v_k, b).  The identity at x = v_k, sum u_k v_k = 1
  and ap = pa give t(a) H(b) - H(ab) + H(a) t(b) = c(a, b), and as
  H(a) H(b) = 0, t + H has defect c - c = 0: the multiplicative lift is
  t + H.  H is built as a map, not one product at a time: expanding c,
  H = sum_k L_t(u_k) t L_v_k - L_P t with P = sum_k t(u_k) t(v_k), where
  L_x is left multiplication by x, and its columns are read in N's
  coordinates.  The H that work differ by derivations A/J -> N, all
  inner, b -> t(b) n - n t(b); at b = e_s that is L_t(e_s) - R_t(e_s)
  restricted to N.  Reduced against those with its unknowns
  x[r q + s] (coordinate r of H(e_s)) in reversed order, H vanishes on
  the free columns of the coboundary system's RREF, which are the pivots
  of the derivation space's reversed RREF (matroid duality): the lift is
  the one that system gives with its free coordinates zero.
* Two sections s1, s2 differ by the derivation d = s1 - s2 into J with
  x.j = s1(x) j and j.x = j s2(x).  An inner w with d(x) = x.w - w.x is
  exactly (1 - w) s2(x) = s1(x) (1 - w), so w itself is the conjugator.
"""

from __future__ import annotations

import random

from .algebra import (AlgHom, FinAlg, Ideal, _checked_map, _map_sub,
                      _mult_map, quotient)
from .errors import (AmbientMismatch, BadSpec, InternalVerificationFailed,
                     NotIdempotentModJ, _internal)
from .linalg import (Matrix, Subspace, apply_map, compose, first_difference,
                     identity_map, map_of, solve_maps)
from .radical import RadicalResult, radical
from .separability import induced_bimodule, inner_derivation, sep_idempotent


class Splitting:
    """An algebra section of the projection A -> A/J(A) with image S, the
    span of the section's columns."""

    def __init__(self, algebra: FinAlg, quotient: FinAlg, projection: AlgHom,
                 section: AlgHom, radical: RadicalResult):
        self.algebra = algebra
        self.quotient = quotient
        self.projection = projection
        self.section = section
        self.image = Subspace.span_of(algebra.field, algebra.dim, section.map)
        self.radical = radical

    def verify(self):
        """The section s is a unital algebra homomorphism and a right
        inverse of the projection pi, and J is the kernel of pi.  S is then
        a complement of J: s(y) in J gives y = pi(s(y)) = 0, so s is
        injective and dim S + dim J = dim A."""
        A = self.algebra
        K = A.field
        comp = compose(K, self.projection.map, self.section.map)
        if first_difference(K, comp, identity_map(K, self.quotient.dim)) \
                is not None:
            raise BadSpec("projection o section != id")
        self.section.verify()
        J = self.radical.radical.space
        if Subspace.kernel(K, A.dim, [self.projection.map]) != J:
            raise BadSpec("J is not the kernel of the projection")
        return True


def lift_idempotent(A: FinAlg, f, rad: RadicalResult | None = None):
    """Lift an idempotent-mod-J vector to an exact idempotent congruent to
    it, by iterating e <- 3e^2 - 2e^3 (valid in every characteristic)."""
    if rad is None:
        rad = radical(A)
    J = rad.radical.space
    f = tuple(f)
    defect = A.sub(A.mul(f, f), f)
    if not J.contains(defect):
        raise NotIdempotentModJ("f^2 - f is not in the radical")
    three = A.field.from_int(3)
    minus_two = A.field.from_int(-2)
    m = max(rad.nilpotency_index, 1)
    bound = m.bit_length() + 2
    e = f
    for _ in range(bound):
        sq = A.mul(e, e)
        if sq == e:
            break
        cube = A.mul(sq, e)
        e = A.add(A.scale(three, sq), A.scale(minus_two, cube))
    if A.mul(e, e) != e:
        raise InternalVerificationFailed("idempotent iteration did not settle")
    if not J.contains(A.sub(e, f)):
        raise InternalVerificationFailed("lifted idempotent moved mod J")
    return e


def _connecting_hom(fine, ideal: Ideal, coarse_proj: AlgHom) -> AlgHom:
    """The induced surjection A/I' -> A/I for I' = ``ideal`` contained in
    I.  Basis element i of A/I' lifts to the unit vector at the i-th
    non-pivot column of I', so its image is that column of the coarser
    projection."""
    pivots = ideal.space.pivots
    cols = [coarse_proj.map.get(c, ()) for c in range(coarse_proj.source.dim)
            if c not in pivots]
    return AlgHom(fine, coarse_proj.target, dict(enumerate(cols)))


def _layer_correction(head: FinAlg, fine: FinAlg, layer: Subspace,
                      tau, pairs) -> list:
    """The columns H(e_s) of the correction that makes the linear lift
    t = ``tau`` (sparse columns) of A/J into ``fine`` multiplicative,
    ``layer`` being the square-zero ideal N that holds its defect, read
    off the ``pairs`` of a separability idempotent of A/J as the module
    docstring says: H and the inner derivations are composed maps, read
    in N's coordinates by ``Subspace.coordinates`` and ``restrict``."""
    K, q, nu = fine.field, head.dim, layer.dim

    def lift(v):
        return apply_map(K, tau, v, fine.dim)

    lefts = [(_mult_map(fine, lift(u), "left"), v) for u, v in pairs]
    P, H = fine.zero_element(), {}
    for L, v in lefts:
        P = fine.add(P, apply_map(K, L, lift(v), fine.dim))
        for j, col in compose(K, L, compose(K, tau, _mult_map(
                head, v, "left"))).items():
            H.setdefault(j, []).extend(col)
    hcols = layer.coordinates(_map_sub(
        K, H, compose(K, _mult_map(fine, P, "left"), tau)))
    ders = [layer.restrict(_map_sub(K, _mult_map(fine, t, "left"),
                                    _mult_map(fine, t, "right")))
            for t in map(lift, map(head.basis_element, range(q)))]
    if hcols is None or None in ders:
        raise InternalVerificationFailed("correction escapes the kernel layer")
    # x[r q + s] is coordinate r of column s, in reversed order
    last = nu * q - 1
    inner = {r: [(last - m * q - s, c) for s, d in enumerate(ders)
                 for m, c in d[r]] for r in range(nu)}
    x = dict(Subspace.span_of(K, nu * q, inner).residue({0: [
        (last - r * q - s, c) for s, col in hcols.items()
        for r, c in col]})[0])
    return [layer.from_coords([x.get(last - r * q - s, K.zero)
                               for r in range(nu)]) for s in range(q)]


def wedderburn_splitting(A: FinAlg, seed: int = 0) -> Splitting:
    """A validated Wedderburn-Malcev splitting of A.

    The seed perturbs the linear lift chosen at each filtration layer, so
    different seeds generally produce different (conjugate) splittings."""
    rad = radical(A)
    K = A.field
    quots = [quotient(A, idl) for idl in rad.filtration]
    head, head_proj = quots[0]
    sep = sep_idempotent(head)
    if sep is None:
        raise InternalVerificationFailed("A/J is not separable")
    rng = random.Random(seed)
    q = head.dim
    section = [head.basis_element(s) for s in range(q)]   # its columns
    for level in range(1, len(quots)):
        fine, _ = quots[level]
        rho = _connecting_hom(fine, rad.filtration[level], quots[level - 1][1])
        nspace = Subspace.kernel(K, fine.dim, [rho.map])
        # linear lift of the current section through rho
        taus = [solve_maps(K, fine.dim, [rho.map], [c]) for c in section]
        if any(t is None for t in taus):
            raise InternalVerificationFailed("connecting map not surjective")
        taus = [fine.add(t, nspace.from_coords(tuple(
            K.from_int(rng.randint(-2, 2)) for _ in range(nspace.dim))))
            for t in taus]
        # restore tau(1) = 1 by moving column idx alone, w[idx] being the
        # first nonzero coordinate of the unit w of A/J
        w = head.unit
        idx = next(i for i, c in enumerate(w) if not K.is_zero(c))
        drift = fine.sub(apply_map(K, map_of(K, taus), w, fine.dim),
                         fine.unit)
        taus[idx] = fine.sub(taus[idx], fine.scale(K.inv(w[idx]), drift))
        hcols = _layer_correction(head, fine, nspace, map_of(K, taus),
                                  sep.pairs)
        section = list(map(fine.add, taus, hcols))
        if level < len(quots) - 1:
            _internal(AlgHom(head, fine, map_of(K, section)).verify)
    # the last quotient is by the zero ideal, i.e. A itself coordinatewise,
    # so Splitting.verify proves the last layer's section
    return _internal(_checked_splitting, A, head, head_proj,
                     map_of(K, section), rad)


def splitting_from_section_matrix(A: FinAlg, matrix: Matrix,
                                  rad: RadicalResult | None = None,
                                  head=None) -> Splitting:
    """Rebuild and fully validate a Splitting from a stored section matrix;
    one that is not a section of A -> A/J is bad input (NotAHom, BadSpec).
    ``head`` is the pair (A/J, projection) when the caller already holds
    it for this radical."""
    if rad is None:
        rad = radical(A)
    head, head_proj = quotient(A, rad.radical) if head is None else head
    return _checked_splitting(A, head, head_proj,
                              _checked_map(matrix, head, A), rad)


def _checked_splitting(A: FinAlg, head: FinAlg, head_proj: AlgHom, section,
                       rad: RadicalResult) -> Splitting:
    """The Splitting with the section map ``section``, fully validated."""
    split = Splitting(A, head, head_proj, AlgHom(head, A, section), rad)
    split.verify()
    return split


def splitting_from_complement(A: FinAlg, space: Subspace,
                              rad: RadicalResult | None = None) -> Splitting:
    """The splitting whose image is a given complement subalgebra of J."""
    if rad is None:
        rad = radical(A)
    head, head_proj = quotient(A, rad.radical)
    K = A.field
    f = map_of(K, [head_proj.apply(v) for v in space.basis])
    coords = [solve_maps(K, space.dim, [f], [head.basis_element(i)])
              for i in range(head.dim)]
    if any(c is None for c in coords):
        raise InternalVerificationFailed(
            "subspace is not a complement of the radical")
    return _checked_splitting(A, head, head_proj, map_of(K, [
        space.from_coords(c) for c in coords]), rad)


def check_ideal_lemma(s: Splitting, ideal: Ideal) -> bool:
    """Whether the section maps (I + J)/J into I; true for every twosided
    ideal by the idempotent-power argument.  The projection kills J, so
    (I + J)/J is the image of I."""
    if ideal.ambient != s.algebra:
        raise AmbientMismatch("ideal of a different algebra")
    return all(ideal.contains(s.section.apply(s.projection.apply(v)))
               for v in ideal.space.basis)


def _geometric_inverse(A: FinAlg, omega, index: int):
    """(1 - w)^(-1) as 1 + w + w^2 + ... for nilpotent w."""
    acc = A.unit
    term = A.unit
    for _ in range(max(index, 1)):
        term = A.mul(term, omega)
        acc = A.add(acc, term)
    return acc


def malcev_conjugator(s1: Splitting, s2: Splitting):
    """An element w of J with S1 = (1 - w) S2 (1 - w)^(-1), found by making
    the difference of the two sections inner over the J bimodule with
    x.j = s1(x) j and j.x = j s2(x)."""
    A = s1.algebra
    if s2.algebra != A:
        raise AmbientMismatch("splittings of different algebras")
    K = A.field
    J = s1.radical.radical.space
    if J != s2.radical.radical.space:
        raise InternalVerificationFailed("radical mismatch between splittings")
    head = s1.quotient
    if s2.quotient != head:
        raise InternalVerificationFailed("quotient mismatch between splittings")
    if J.is_zero():
        return A.zero_element()
    a1 = [s1.section.apply(head.basis_element(i)) for i in range(head.dim)]
    a2 = [s2.section.apply(head.basis_element(i)) for i in range(head.dim)]
    T = induced_bimodule(head, J, [_mult_map(A, x, "left") for x in a1],
                         [_mult_map(A, x, "right") for x in a2])
    d = J.coordinates(_map_sub(K, s1.section.map, s2.section.map))
    if d is None:
        raise InternalVerificationFailed(
            "section difference escapes the radical")
    u = _internal(inner_derivation, head, T, d)
    if u is None:
        raise InternalVerificationFailed(
            "section difference not inner: separability violated")
    omega = J.from_coords(u)
    one_minus = A.sub(A.unit, omega)
    inv = _geometric_inverse(A, omega, s1.radical.nilpotency_index)
    if A.mul(one_minus, inv) != A.unit or A.mul(inv, one_minus) != A.unit \
            or any(A.mul(one_minus, A.mul(x2, inv)) != x1
                   for x1, x2 in zip(a1, a2)):
        raise InternalVerificationFailed(
            "(1 - w) S2 (1 - w)^(-1) is not S1")
    return omega
