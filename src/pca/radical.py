"""Jacobson radical of a finite-dimensional algebra, with cross-checks.

Two computational routes:

* characteristic 0, or characteristic p > dim(A): the radical is the kernel
  of the trace form (x, y) -> tr(L_{xy});
* characteristic p <= dim(A): a descending chain of subspaces cut out by
  trace-of-p-power functionals evaluated on integer lifts of the left
  regular representation, run over the prime subfield after restriction of
  scalars.

Both routes end in the same post-verification: the result must be a
twosided ideal, nilpotent of index <= dim, with a radical-free quotient.
A failed check raises InternalVerificationFailed rather than returning a
wrong answer.  ``radical_oracle`` is an independent brute-force enumeration
used by the test suite to pin the fast routes down.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import (FinAlg, Ideal, quotient, restrict_scalars,
                      subspace_product)
from .errors import (InternalVerificationFailed, TooLarge, UnsupportedField)
from .fields import (PrimeField, RationalFunctionField, SimpleExtension,
                     prime_subfield)
from .linalg import Matrix, Subspace, nullspace, rank


@dataclass
class RadicalResult:
    radical: Ideal
    filtration: list
    nilpotency_index: int
    method: str


def _check_field_supported(A: FinAlg):
    if isinstance(prime_subfield(A.field), RationalFunctionField):
        raise UnsupportedField(
            "radical over F_p(t) and its extensions is not supported")


def _trace_form_space(A: FinAlg) -> Subspace:
    K = A.field
    n = A.dim
    T = [[A.trace_left_mult(A.product_basis(i, j)) for j in range(n)]
         for i in range(n)]
    # x in kernel iff sum_i x_i T[i][j] = 0 for all j
    return Subspace(K, n, nullspace(Matrix(K, zip(*T), n)).data)


def _imat_mul(a, b):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(n):
                    if bk[j]:
                        oi[j] += c * bk[j]
    return out


def _imat_pow(a, e):
    n = len(a)
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    while e > 0:
        if e & 1:
            out = _imat_mul(out, a)
        a = _imat_mul(a, a)
        e >>= 1
    return out


def _char_p_chain_space(A: FinAlg) -> Subspace:
    """Radical over a prime field F_p with p <= dim, by the descending chain
    I_{i+1} = {x in I_i : tr((Lx Ly)^(p^i)) = 0 mod p^(i+1) for all y in I_i}.

    The integer traces are provably divisible by p^i on the chain, which
    makes each condition an F_p-linear cut; non-divisibility would mean a
    bug and is raised."""
    K = A.field
    p = K.p
    n = A.dim
    lifts = [[list(row) for row in A.left_mult_matrix(
        A.basis_element(i)).data] for i in range(n)]

    def lift_of(v):
        out = [[0] * n for _ in range(n)]
        for r, c in enumerate(v):
            if c:
                lr = lifts[r]
                for i in range(n):
                    if any(lr[i]):
                        oi = out[i]
                        li = lr[i]
                        for j in range(n):
                            oi[j] += c * li[j]
        return out

    space = Subspace.full(K, n)
    ell = 0
    while p ** (ell + 1) <= n:
        ell += 1
    for i in range(ell + 1):
        if space.is_zero():
            break
        basis = space.basis
        mats = [lift_of(v) for v in basis]
        q = p ** i
        G = []
        for mr in mats:
            row = []
            for ms in mats:
                t = 0
                power = _imat_pow(_imat_mul(mr, ms), q)
                for d in range(n):
                    t += power[d][d]
                if t % q:
                    raise InternalVerificationFailed(
                        "chain trace not divisible by p^i")
                row.append((t // q) % p)
            G.append(row)
        N = nullspace(Matrix(K, zip(*G), len(basis)))
        vecs = [space.from_coords(c) for c in N.data]
        space = Subspace(K, n, vecs)
    return space


def _radical_space(A: FinAlg):
    _check_field_supported(A)
    if A.dim == 1:
        return Subspace.zero(A.field, 1), "trace_form"
    char = A.field.char
    if char == 0 or char > A.dim:
        return _trace_form_space(A), "trace_form"
    if isinstance(A.field, PrimeField):
        return _char_p_chain_space(A), "char_p_chain"
    # finite extension field: restrict scalars to F_p, then re-span over E
    B, down, up = restrict_scalars(A)
    while isinstance(B.field, SimpleExtension):
        B2, down2, up2 = restrict_scalars(B)
        down_old, up_old = down, up
        down = lambda v, d1=down_old, d2=down2: d2(d1(v))
        up = lambda w, u1=up_old, u2=up2: u1(u2(w))
        B = B2
    wspace = _char_p_chain_space(B)
    E = A.field
    vecs = [up(w) for w in wspace.basis]
    space = Subspace(E, A.dim, vecs)
    deg = 1
    F = E
    while isinstance(F, SimpleExtension):
        deg *= F.degree
        F = F.base
    if space.dim * deg != wspace.dim:
        raise InternalVerificationFailed(
            "restricted radical is not an extension-field subspace")
    return space, "char_p_chain"


def _nilpotency_data(A: FinAlg, space: Subspace):
    """Filtration J, J^2, ..., 0 and the nilpotency index.  J is proved an
    ideal once; its powers are ideals because it is."""
    J = Ideal(A, space, "twosided")
    J.verify()
    if space.is_zero():
        return [J], 0
    filtration = [J]
    cur = space
    while not cur.is_zero():
        nxt = subspace_product(A, cur, space)
        if nxt.dim >= cur.dim:
            raise InternalVerificationFailed(
                "candidate radical is not nilpotent")
        cur = nxt
        filtration.append(Ideal(A, cur, "twosided"))
    # the list holds J, J^2, ..., J^m with J^m the first zero power
    return filtration, len(filtration)


def radical(A: FinAlg) -> RadicalResult:
    """The maximal nilpotent twosided ideal, with its power filtration.

    The chosen method's answer always passes post-verification (ideal,
    nilpotent, semisimple quotient); a failure raises rather than returning
    a wrong ideal."""
    space, method = _radical_space(A)
    try:
        filtration, index = _nilpotency_data(A, space)
    except Exception as exc:
        raise InternalVerificationFailed(
            f"radical postcondition failed: {exc}") from exc
    result = RadicalResult(filtration[0], filtration, index, method)
    if not space.is_zero():
        if space.dim == A.dim:
            raise InternalVerificationFailed("radical cannot be the algebra")
        Aq, _ = quotient(A, result.radical)
        qspace, _ = _radical_space(Aq)
        if not qspace.is_zero():
            raise InternalVerificationFailed(
                "quotient by computed radical is not semisimple")
    return result


def radical_oracle(A: FinAlg) -> Ideal:
    """Brute-force radical over a prime field: the set of x such that
    1 - y*x is invertible for every y, by full enumeration."""
    K = A.field
    if not isinstance(K, PrimeField):
        raise UnsupportedField("the oracle enumerates prime-field algebras")
    p = K.p
    if p ** A.dim > 2 ** 16:
        raise TooLarge(f"{p}^{A.dim} elements is beyond the oracle bound")
    elements = list(itertools.product(range(p), repeat=A.dim))
    good = []
    for x in elements:
        ok = True
        for y in elements:
            u = A.sub(A.unit, A.mul(y, x))
            if rank(A.left_mult_matrix(u)) != A.dim:
                ok = False
                break
        if ok:
            good.append(x)
    space = Subspace(K, A.dim, good)
    # the set lies in its span, so it is the span iff the sizes agree
    if p ** space.dim != len(good):
        raise InternalVerificationFailed("oracle set is not a subspace")
    idl = Ideal(A, space, "twosided")
    idl.verify()
    return idl


def is_semisimple(A: FinAlg) -> bool:
    """True iff the radical vanishes."""
    return radical(A).radical.is_zero()


def maximal_twosided_intersection(A: FinAlg) -> Ideal:
    """Intersection of the preimages of the block-complement ideals of A/J;
    asserted equal to the radical (a consistency predicate)."""
    from .wedderburn import central_idempotents

    rr = radical(A)
    Aq, pi = quotient(A, rr.radical)
    dec = central_idempotents(Aq)
    K = A.field
    inter = Subspace.full(K, A.dim)
    one = Aq.unit
    for e in dec.idempotents:
        comp = Subspace(K, Aq.dim,
                        [Aq.mul(Aq.basis_element(i), Aq.sub(one, e))
                         for i in range(Aq.dim)])
        # preimage of comp under pi: kernel of (reduce-by-comp) o pi
        cols = [comp.reduce(pi.apply(A.basis_element(i)))
                for i in range(A.dim)]
        pre = Subspace(K, A.dim, nullspace(
            Matrix(K, zip(*cols), A.dim)).data)
        inter = inter.intersect(pre)
    if inter != rr.radical.space:
        raise InternalVerificationFailed(
            "maximal twosided intersection differs from the radical")
    return Ideal(A, inter, "twosided")
