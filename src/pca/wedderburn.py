"""Block decomposition of semisimple algebras via central idempotents.

A semisimple algebra over Q or F_p is split into its simple blocks by
factoring minimal polynomials of central elements and recursing until each
block's center is a field.  Over F_p the block count is read off
deterministically from the fixed space of the Frobenius map on the center;
over Q a seeded random center element is used, with a primitive-element
degree certificate.  Each block of a primitive central idempotent e is
the quotient algebra A/A(1-e), A(1-e) being the kernel of right
multiplication by e, and is isomorphic to Ae by a + A(1-e) -> ae.
Orthogonality, completeness, centrality and the reassembly isomorphism
are re-verified in exact arithmetic on every call; the reassembly is
proved through ``errors._internal``.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate

from .algebra import (AlgHom, FinAlg, Ideal, _block_krylov, _map_sub,
                      _mult_map, direct_product, kernel, quotient)
from .errors import (BadSpec, InternalVerificationFailed, NotCoprime,
                     NotSemisimple, UnsupportedField, _internal)
from .fields import PrimeField, Rationals
from .linalg import (Subspace, identity_map, map_of, solve_maps,
                     vec_is_zero)
from .poly import Poly, factor
from .radical import is_semisimple
from .fields import pdeg, pdivmod, pextgcd, pmod, pmul


class BlockDecomposition:
    """``idempotents``: a complete orthogonal primitive central set.  For
    each idempotent e, ``blocks`` holds the quotient algebra A/A(1-e),
    isomorphic to Ae by a + A(1-e) -> ae, on the basis ``quotient`` keeps;
    ``block_spaces`` holds the Subspace Ae of A and ``block_data`` a dict
    with total_dim, center_dim and, over a prime field, matrix_degree."""

    def __init__(self, algebra: FinAlg, idempotents: list, blocks: list,
                 block_spaces: list, block_data: list):
        self.algebra = algebra
        self.idempotents = idempotents
        self.blocks = blocks
        self.block_spaces = block_spaces
        self.block_data = block_data


def center(A: FinAlg) -> Subspace:
    """{z : z e_g = e_g z for all g in G}, the common kernel of the maps
    L_g - R_g, g in G = ``A.generators()``.  The a that commute with a
    fixed z form a subalgebra holding 1, so z commutes with G exactly when
    it commutes with all of A: the center itself."""
    K = A.field
    maps = [_map_sub(K, _mult_map(A, e, "left"), _mult_map(A, e, "right"))
            for e in map(A.basis_element, A.generators())]
    return Subspace.kernel(K, A.dim, maps)


def _check_split(A: FinAlg, parts, e):
    """The proof that ``parts`` are orthogonal idempotents summing to e."""
    total = A.zero_element()
    for i, ei in enumerate(parts):
        total = A.add(total, ei)
        if A.mul(ei, ei) != ei:
            raise InternalVerificationFailed(
                "a central idempotent is not idempotent")
        for ej in parts[:i]:
            if not vec_is_zero(A.field, A.mul(ei, ej)):
                raise InternalVerificationFailed(
                    "central idempotents not orthogonal")
    if total != e:
        raise InternalVerificationFailed("central idempotents do not sum to e")


def _split_by(A: FinAlg, e, powers, mu: Poly, fac):
    """Split the central idempotent e along the factors ``fac`` of the
    minimal polynomial mu of z in Ae; ``powers`` are e, ez, ez^2, ...,
    so a part h(z) e with deg h < deg mu is sum_k h_k (e z^k)."""
    K = A.field
    for _, m in fac:
        if m != 1:
            raise InternalVerificationFailed(
                "central minimal polynomial not squarefree")
    parts = []
    for f, _ in fac:
        ghat, rem = pdivmod(mu.coeffs, f.coeffs, K)
        if rem:
            raise InternalVerificationFailed("factor does not divide minpoly")
        d, s, _ = pextgcd(ghat, f.coeffs, K)
        if pdeg(d) != 0:
            raise InternalVerificationFailed("minpoly factors not coprime")
        part = A.zero_element()
        for c, p in zip(pmod(pmul(s, ghat, K), mu.coeffs, K), powers):
            if not K.is_zero(c):
                part = A.add(part, A.scale(c, p))
        parts.append(part)
    _check_split(A, parts, e)
    return parts


def _find_splitter_prime(A: FinAlg, e, ze: Subspace):
    """Over F_p: Frobenius fixed space of Z(A)e counts the blocks; any
    non-scalar fixed element z splits (its minpoly divides x^p - x).
    Returns ([e, ez, ...], minpoly(z), its factors), or None when Z(A)e
    is a field."""
    K = A.field
    cols = []
    for v in ze.basis:
        w = v  # v^p by square-and-multiply over the bits of p
        for bit in bin(K.p)[3:]:
            w = A.mul(w, w)
            if bit == "1":
                w = A.mul(w, v)
        cols.append(ze.coords(w))
    if any(c is None for c in cols):
        raise InternalVerificationFailed("center not closed under Frobenius")
    fixed = Subspace.kernel(K, ze.dim, [
        _map_sub(K, map_of(K, cols), identity_map(K, ze.dim))])
    if fixed.dim <= 1:
        return None
    span_e = Subspace(K, A.dim, [e])
    for c in fixed.basis:
        w = ze.from_coords(c)
        if not span_e.contains(w):
            mu, powers = _block_krylov(A, e, w)
            return powers, mu, factor(mu)
    raise InternalVerificationFailed("Frobenius fixed space has no splitter")


def _find_splitter_rationals(A: FinAlg, e, ze: Subspace, rng):
    """Over Q: seeded random center elements; an irreducible minimal
    polynomial of full degree certifies a field, a reducible one splits.
    Returns ([e, ez, ...], minpoly(z), its factors), or None when Z(A)e
    is a field."""
    K = A.field
    candidates = list(ze.basis)
    for attempt in range(500):
        if attempt < len(candidates):
            z = candidates[attempt]
        else:
            height = 2 + attempt // 10
            z = ze.from_coords(tuple(
                K.from_int(rng.randint(-height, height))
                for _ in range(ze.dim)))
        mu, powers = _block_krylov(A, e, z)
        if mu.degree < 1:
            continue
        fac = factor(mu)
        if len(fac) > 1 or fac[0][1] > 1:
            return powers, mu, fac
        if mu.degree == ze.dim:
            return None
    raise InternalVerificationFailed(
        "no primitive or splitting center element found")


def _block(A: FinAlg, e, zc: Subspace):
    """The block A/A(1-e), the subspace Ae, the dimension data and the
    columns of the projection A -> A/A(1-e), for e an idempotent in the
    centre ``zc``.  Ker R_e is A(1-e), as ae = 0 exactly when a = a(1-e);
    it is a twosided ideal as e is central, and a + A(1-e) -> ae maps the
    quotient onto Ae."""
    K = A.field
    if not zc.contains(e):
        raise InternalVerificationFailed("a block idempotent is not central")
    right = _mult_map(A, e, "right")
    ker = Subspace.kernel(K, A.dim, [right])
    block, proj = quotient(A, Ideal(A, ker))
    cdim = center(block).dim
    record = {"total_dim": block.dim, "center_dim": cdim}
    if isinstance(K, PrimeField):
        n2 = block.dim // cdim
        n = math.isqrt(n2)
        if n * n * cdim != block.dim:
            raise InternalVerificationFailed(
                "block dimension is not n^2 * center_dim")
        record["matrix_degree"] = n
    # the e_c e for the columns c the quotient keeps are a basis of Ae
    pivots = set(ker.pivots)
    kept = {c: col for c, col in right.items() if c not in pivots}
    return block, Subspace.span_of(K, A.dim, kept), record, proj.map


def central_idempotents(A: FinAlg, seed: int = 0) -> BlockDecomposition:
    """Complete orthogonal set of primitive central idempotents with the
    block algebras Ae and their dimension data.

    The idempotents are the leaves of a split tree rooted at 1, and each
    ``_split_by`` proves its parts orthogonal idempotents summing to their
    parent.  So the leaves sum to 1, and leaves i, j lie under orthogonal
    children a, b of their lowest common split: i j = (i a)(b j) = 0."""
    K = A.field
    if not isinstance(K, (Rationals, PrimeField)):
        raise UnsupportedField(
            "block decomposition needs factorization: Q or F_p only")
    if not is_semisimple(A):
        raise NotSemisimple("block decomposition needs a semisimple algebra")
    rng = random.Random(seed)
    zc = center(A)
    worklist = [A.unit]
    final = []
    while worklist:
        e = worklist.pop()
        ze = zc.image([_mult_map(A, e, "right")])
        if ze.dim == 1:
            final.append(e)
            continue
        found = (_find_splitter_prime(A, e, ze) if isinstance(K, PrimeField)
                 else _find_splitter_rationals(A, e, ze, rng))
        if found is None:
            final.append(e)
            continue
        powers, mu, fac = found
        # deg mu = dim Z(A)e makes Z(A)e = K[z]e = K[x]/(mu), so the centre
        # of each part, K[x]/(f) for an irreducible factor f, is a field
        parts = _split_by(A, e, powers, mu, fac)
        (final if mu.degree == ze.dim else worklist).extend(parts)

    built = sorted(((e, *_block(A, e, zc)) for e in final),
                   key=lambda x: (x[1].dim, x[0]))
    final, blocks, spaces, data, projs = (list(c) for c in zip(*built))

    # reassembly: a -> (a + A(1-e_1), ..., a + A(1-e_r)), each projection's
    # columns stacked at its block's offset, must be an isomorphism
    offsets = [0, *accumulate(b.dim for b in blocks)]
    h = AlgHom(A, direct_product(blocks), {
        j: tuple((o + k, c) for p, o in zip(projs, offsets)
                 for k, c in p.get(j, ())) for j in range(A.dim)})
    _internal(h.verify)
    if not kernel(h).is_zero():
        raise InternalVerificationFailed("reassembly map is not bijective")

    return BlockDecomposition(A, final, blocks, spaces, data)


def crt_lift(A: FinAlg, ideals, targets):
    """Element congruent to each target modulo the corresponding ideal.

    Follows the inductive construction: write 1 = x + y with x in the
    intersection of the first ideals and y in the next one, then combine
    b*y + c*x.  Mismatched arguments are BadSpec."""
    ideals = list(ideals)
    targets = [tuple(t) for t in targets]
    if len(ideals) != len(targets) or not ideals:
        raise BadSpec("need matching ideals and targets")
    K = A.field
    for idl in ideals:
        if idl.dim == A.dim:
            raise NotCoprime("an ideal equals the whole algebra")
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            if ideals[i].space.sum(ideals[j].space).dim != A.dim:
                raise NotCoprime(f"ideals {i} and {j} are not coprime", (i, j))
    acc_space = ideals[0].space
    acc = targets[0]
    for m in range(1, len(ideals)):
        nxt = ideals[m].space
        cols = list(acc_space.basis) + list(nxt.basis)
        sol = solve_maps(K, len(cols), [map_of(K, cols)], [A.unit])
        if sol is None:
            raise InternalVerificationFailed("1 = x + y decomposition failed")
        x = A.zero_element()
        for c, v in zip(sol[:acc_space.dim], acc_space.basis):
            x = A.add(x, A.scale(c, v))
        y = A.sub(A.unit, x)
        acc = A.add(A.mul(acc, y), A.mul(targets[m], x))
        acc_space = acc_space.intersect(nxt)
    for idl, t in zip(ideals, targets):
        if not idl.contains(A.sub(acc, t)):
            raise InternalVerificationFailed("lift missed a target")
    return acc
