"""Block decomposition of semisimple algebras via central idempotents.

A semisimple algebra over Q or F_p is split into its simple blocks by
factoring minimal polynomials of central elements and recursing until each
block's center is a field.  Over F_p the block count is read off
deterministically from the fixed space of the Frobenius map on the center;
over Q a seeded random center element is used, with a primitive-element
degree certificate.  Orthogonality, completeness and the reassembly
isomorphism are re-verified in exact arithmetic on every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .algebra import FinAlg, _trusted_algebra, direct_product, hom_check
from .errors import (InternalVerificationFailed, NoSolutionInconsistency,
                     NotCoprime, NotSemisimple, UnsupportedField)
from .fields import PrimeField, Rationals
from .linalg import Matrix, Subspace, nullspace, rank, solve
from .poly import Poly, factor
from .radical import is_semisimple
from .fields import pdeg, pdivmod, pextgcd, pmod, pmul, pscale


@dataclass
class BlockDecomposition:
    algebra: FinAlg
    idempotents: list          # complete orthogonal primitive central set
    blocks: list               # FinAlg on each Ae with unit e
    block_spaces: list         # Subspace of A underlying each block
    block_data: list           # dicts: total_dim, center_dim, matrix_degree


def center(A: FinAlg) -> Subspace:
    """{z : z e_i = e_i z for all i}, one nullspace computation."""
    K = A.field
    rows = []
    for i in range(A.dim):
        L = A.left_mult_matrix(A.basis_element(i))
        R = A.right_mult_matrix(A.basis_element(i))
        rows.extend(L.sub(R).data)
    return Subspace(K, A.dim, nullspace(Matrix(K, rows, A.dim)).data)


def _block_minpoly(A: FinAlg, e, z):
    """Minimal polynomial of z inside the block Ae (unit e)."""
    K = A.field
    powers = [e]
    span = Subspace(K, A.dim, [e])
    while True:
        nxt = A.mul(powers[-1], z)
        if span.contains(nxt):
            break
        powers.append(nxt)
        span = Subspace(K, A.dim, powers)
    sol = solve(Matrix(K, zip(*powers), len(powers)), nxt)
    return Poly(K, [K.neg(c) for c in sol] + [K.one])


def _eval_in_block(A: FinAlg, e, z, f: Poly):
    """f(z) inside the block Ae: the constant term multiplies e."""
    acc = A.zero_element()
    for c in reversed(f.coeffs):
        acc = A.mul(acc, z)
        acc = A.add(acc, A.scale(c, e))
    return acc


def _split_by(A: FinAlg, e, z, mu: Poly):
    """Split the central idempotent e along the factors of mu = minpoly(z)."""
    K = A.field
    fac = factor(mu)
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
        h = pmod(pmul(pscale(s, K.inv(d[0]), K), ghat, K), mu.coeffs, K)
        parts.append(_eval_in_block(A, e, z, Poly(K, h)))
    total = A.zero_element()
    for i, ei in enumerate(parts):
        total = A.add(total, ei)
        if A.mul(ei, ei) != ei:
            raise InternalVerificationFailed("split produced a non-idempotent")
        for j in range(i):
            if not all(K.is_zero(c) for c in A.mul(ei, parts[j])):
                raise InternalVerificationFailed(
                    "split idempotents not orthogonal")
    if total != e:
        raise InternalVerificationFailed("split idempotents do not sum to e")
    return parts


def _center_of_idempotent(A: FinAlg, zc: Subspace, e):
    """Basis of Z(A)e."""
    return Subspace(A.field, A.dim, [A.mul(v, e) for v in zc.basis])


def _find_splitter_prime(A: FinAlg, e, ze: Subspace):
    """Over F_p: Frobenius fixed space of Z(A)e counts the blocks; any
    non-scalar fixed element splits (its minpoly divides x^p - x)."""
    K = A.field
    p = K.p
    cols = []
    for v in ze.basis:
        w = v
        for _ in range(p - 1):
            w = A.mul(w, v)
        cols.append(ze.coords(w))
    if any(c is None for c in cols):
        raise InternalVerificationFailed("center not closed under Frobenius")
    n = ze.dim
    M = Matrix(K, zip(*cols), n)
    I = Matrix.identity(K, n)
    fixed = nullspace(M.sub(I))
    if fixed.rows <= 1:
        return None
    span_e = Subspace(K, A.dim, [e])
    for c in fixed.data:
        w = ze.from_coords(c)
        if not span_e.contains(w):
            return w
    raise InternalVerificationFailed("Frobenius fixed space has no splitter")


def _find_splitter_rationals(A: FinAlg, e, ze: Subspace, rng):
    """Over Q: seeded random center elements; an irreducible minimal
    polynomial of full degree certifies a field, a reducible one splits."""
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
        mu = _block_minpoly(A, e, z)
        if mu.degree < 1:
            continue
        fac = factor(mu)
        if len(fac) > 1 or fac[0][1] > 1:
            return z
        if mu.degree == ze.dim:
            return None
    raise InternalVerificationFailed(
        "no primitive or splitting center element found")


def central_idempotents(A: FinAlg, seed: int = 0) -> BlockDecomposition:
    """Complete orthogonal set of primitive central idempotents with the
    block algebras Ae and their dimension data."""
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
        ze = _center_of_idempotent(A, zc, e)
        if ze.dim == 1:
            final.append(e)
            continue
        if isinstance(K, PrimeField):
            z = _find_splitter_prime(A, e, ze)
        else:
            z = _find_splitter_rationals(A, e, ze, rng)
        if z is None:
            final.append(e)
            continue
        mu = _block_minpoly(A, e, z)
        worklist.extend(_split_by(A, e, z, mu))

    # completeness and pairwise orthogonality of the final set
    total = A.zero_element()
    for i, ei in enumerate(final):
        total = A.add(total, ei)
        for j in range(i):
            prod = A.mul(ei, final[j])
            if not all(K.is_zero(c) for c in prod):
                raise InternalVerificationFailed("idempotents not orthogonal")
    if total != A.unit:
        raise InternalVerificationFailed("idempotents do not sum to 1")

    blocks = []
    spaces = []
    data = []
    for e in final:
        space = Subspace(K, A.dim,
                         [A.mul(A.basis_element(i), e) for i in range(A.dim)])
        labels = [A.labels[p] for p in space.pivots]
        entries = []
        for i in range(space.dim):
            for j in range(space.dim):
                prod = space.coords(A.mul(space.basis[i], space.basis[j]))
                if prod is None:
                    raise InternalVerificationFailed("block not closed")
                for k, c in enumerate(prod):
                    if not K.is_zero(c):
                        entries.append((i, j, k, c))
        ecoords = space.coords(e)
        block = _trusted_algebra(K, labels, entries, ecoords)
        cdim = center(block).dim
        record = {"total_dim": block.dim, "center_dim": cdim}
        if isinstance(K, PrimeField):
            n2 = block.dim // cdim
            n = math.isqrt(n2)
            if n * n * cdim != block.dim:
                raise InternalVerificationFailed(
                    "block dimension is not n^2 * center_dim")
            record["matrix_degree"] = n
        blocks.append(block)
        spaces.append(space)
        data.append(record)

    order = sorted(range(len(final)),
                   key=lambda t: (blocks[t].dim, final[t]))
    final = [final[t] for t in order]
    blocks = [blocks[t] for t in order]
    spaces = [spaces[t] for t in order]
    data = [data[t] for t in order]

    # reassembly: a -> (a e_1, ..., a e_r) must be an algebra isomorphism
    cols = []
    for i in range(A.dim):
        col = []
        for e, space in zip(final, spaces):
            col.extend(space.coords(A.mul(A.basis_element(i), e)))
        cols.append(col)
    h = hom_check(Matrix(K, zip(*cols), A.dim), A, direct_product(blocks))
    if rank(h.matrix) != A.dim:
        raise InternalVerificationFailed("reassembly map is not bijective")

    return BlockDecomposition(A, final, blocks, spaces, data)


def crt_lift(A: FinAlg, ideals, targets):
    """Element congruent to each target modulo the corresponding ideal.

    Follows the inductive construction: write 1 = x + y with x in the
    intersection of the first ideals and y in the next one, then combine
    b*y + c*x."""
    ideals = list(ideals)
    targets = [tuple(t) for t in targets]
    if len(ideals) != len(targets) or not ideals:
        raise NoSolutionInconsistency("need matching ideals and targets")
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
        sol = solve(Matrix(K, zip(*cols), len(cols)), A.unit)
        if sol is None:
            raise NoSolutionInconsistency("1 = x + y decomposition failed")
        x = A.zero_element()
        for c, v in zip(sol[:acc_space.dim], acc_space.basis):
            x = A.add(x, A.scale(c, v))
        y = A.sub(A.unit, x)
        acc = A.add(A.mul(acc, y), A.mul(targets[m], x))
        acc_space = acc_space.intersect(nxt)
    for idl, t in zip(ideals, targets):
        if not idl.contains(A.sub(acc, t)):
            raise NoSolutionInconsistency("lift missed a target")
    return acc
