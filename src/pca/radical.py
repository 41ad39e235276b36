"""Jacobson radical of a finite-dimensional algebra, with cross-checks.

Two cold routes:

* characteristic 0, or characteristic p > dim(A): the radical is the kernel
  of the trace form (x, y) -> tr(L_{xy});
* characteristic p <= dim(A): the descending chain of Cohen, Ivanyos and
  Wales (J. Pure Appl. Algebra 117-118, 1997), run over the prime subfield
  after restriction of scalars.  It starts from the kernel of the trace
  form and cuts each level by one linear functional,
  g_i(x) = tr(L~x^(p^i)) / p^i mod p on an integer lift L~x of the left
  regular representation, so a level costs one trace power per basis row
  of the space it cuts.  Its integer matrix products pack each row of the
  right factor into one Python integer, so a product row is n
  multiply-adds; a power squares from the matrix itself, and the last
  product of tr(X^q) is taken on the diagonal only.

One warm route, ``radical_from_below``, for a surjection pi: A -> B whose
target's radical is known, as between the levels of a tower.  pi maps
J(A) onto J(B), so J(A) lies in J' = pi^(-1)(J(B)).  J' is an ideal,
being the preimage of one, and A/J' is isomorphic to B/J(B), which is
semisimple.  Hence J' = J(A) exactly when J' is nilpotent.  J' is the
kernel of (reduce by J(B)) o pi; when its powers stop falling, as on a
product tower whose kernels are whole factors, the cold route runs.

Every route ends in the same post-verification, ``_certified``: the
result must be a twosided ideal whose powers fall strictly to 0, not the
whole algebra, with a radical-free quotient.  A failed check raises
InternalVerificationFailed rather than returning a wrong answer.

The powers of an ideal J come from generators.  J^k is a right ideal, so
J^k (A g) = J^k g, and J^(k+1) = span{x g : x in J^k, g in G} for any G
with A G spanning J.  This holds for every twosided ideal, nilpotent or
not, so a non-nilpotent J' is seen when its powers stop falling.  A
greedy G grows A G one A v at a time, closing the span under left
multiplication by the algebra's generating set G_A, so it costs
|G_A| * dim(J) products, once.  The shortcut
J^(k+1) = J^k V, with V a complement of J^2 in J, is not used: it holds
only once J is known to be nilpotent.  For J = N x E with N nilpotent
and E = E^2 nonzero, V may be taken inside N x 0; then J V lies in
N^2 x 0 and the chain reaches 0, certifying a non-nilpotent ideal.

``radical_oracle`` is an independent brute-force enumeration used by the
test suite to pin the fast routes down.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import mul

from .algebra import (AlgHom, FinAlg, Ideal, _mult_map, _mult_maps,
                      quotient, restrict_scalars)
from .errors import (InternalVerificationFailed, TooLarge, UnsupportedField,
                     _internal)
from .fields import (PrimeField, RationalFunctionField, SimpleExtension,
                     base_tower, prime_subfield)
from .linalg import Subspace, identity_map


class RadicalResult:
    """J(A), its filtration J > J^2 > ... > 0, the nilpotency index and
    the route that found it."""

    def __init__(self, radical: Ideal, filtration: list,
                 nilpotency_index: int, method: str):
        self.radical = radical
        self.filtration = filtration
        self.nilpotency_index = nilpotency_index
        self.method = method


def _check_field_supported(A: FinAlg):
    if isinstance(prime_subfield(A.field), RationalFunctionField):
        raise UnsupportedField(
            "radical over F_p(t) and its extensions is not supported")


def _form_kernel(A: FinAlg, phi) -> Subspace:
    """{x : phi(x y) = 0 for all y in A}, for the linear functional phi
    with values phi[k] on the basis, read off the structure constants."""
    K = A.field
    # x in kernel iff sum_i x_i phi(e_i e_j) = 0 for all j: the kernel of
    # the map whose column i has phi(e_i e_j) in row j
    f = {i: tuple((j, reduce(K.add, [K.mul(c, phi[k]) for k, c in cell]))
                  for j, cell in row.items()) for i, row in enumerate(A.rows)}
    return Subspace.kernel(K, A.dim, [f])


def _trace_form_space(A: FinAlg) -> Subspace:
    """The kernel of the trace form, read off the trace vector
    t[k] = tr(L_{e_k}), the sum over m of the e_m coefficient of e_k e_m:
    tr(L_{e_i e_j}) is t applied to e_i e_j."""
    K = A.field
    t = [K.zero] * A.dim
    for k, row in enumerate(A.rows):
        for m, cell in row.items():
            t[k] = K.add(t[k], dict(cell).get(m, K.zero))
    return _form_kernel(A, t)


def _imat_mul(a, b, m):
    """Product of two square integer matrices with entries in [0, m),
    reduced mod m.  Each row of b is packed into one integer, in slots
    wide enough for a sum of n products below m^2, so a product row is n
    integer multiply-adds and one unpacking."""
    n = len(a)
    width = (n * (m - 1) ** 2).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, n * width, width)
    slots = [1 << s for s in shifts]
    packed = [sum(map(mul, row, slots)) for row in b]
    out = []
    for ai in a:
        acc = sum(map(mul, ai, packed))
        out.append([(acc >> s & mask) % m for s in shifts])
    return out


def _imat_pow(a, e, m):
    """a^e mod m for e >= 1, by repeated squaring from a itself, with no
    squaring past the highest bit of e."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else _imat_mul(out, a, m)
        e >>= 1
        if not e:
            return out
        a = _imat_mul(a, a, m)


def _trace_pow(x, e, m):
    """tr(x^e) mod m for e >= 2.  The last product of the power is taken on
    the diagonal only, in O(n^2): tr(h h) with h = x^(e/2) for even e, and
    tr(x^(e-1) x) for odd e."""
    if e % 2:
        a, b = _imat_pow(x, e - 1, m), x
    else:
        a = b = _imat_pow(x, e // 2, m)
    return sum(sum(map(mul, row, col)) for row, col in zip(a, zip(*b))) % m


def _char_p_chain_space(A: FinAlg) -> Subspace:
    """Radical over a prime field F_p with p <= dim, by the chain of Cohen,
    Ivanyos and Wales: I_0 is the kernel of the trace form, and for each
    q = p^i <= dim, I_i = {x in I_(i-1) : g_i(x y) = 0 for all y in A} with
    g_i(x) = tr(L~x^q) / q mod p, L~x any integer lift of L_x.

    They show that I_(i-1) is an ideal on which tr(L~x^q) is divisible by
    q and g_i is F_p-linear and does not depend on the lift, and that the
    last level, p^l <= dim < p^(l+1), is J(A).  Every v in I_(i-1) is the
    sum of v[c] b_c over the RREF basis rows b_c, c a pivot column, so phi
    with phi[c] = g_i(b_c) there and 0 elsewhere agrees with g_i on
    I_(i-1), which holds x e_j for x in it: the level is I_(i-1) cut by
    the kernel of x, y -> phi(x y).  It costs dim(I_(i-1)) trace powers,
    not the dim(I_(i-1))^2 / 2 of the form on pairs of rows.  L_b, with
    F_p entries in [0, p), is its own lift; products are reduced mod
    p^(i+1), which keeps ``t % q`` exact.  A trace that is not divisible
    would mean a bug and is raised, and ``_certified`` proves the result."""
    K = A.field
    p = K.p
    n = A.dim
    space = _trace_form_space(A)
    q = p          # p^i
    while q <= n and not space.is_zero():
        m = q * p
        phi = [0] * n
        for b, pc in zip(space.basis, space.pivots):
            L = [[0] * n for _ in range(n)]
            for j, col in _mult_map(A, b, "left").items():
                for k, c in col:
                    L[k][j] = c
            t = _trace_pow(L, q, m)
            if t % q:
                raise InternalVerificationFailed(
                    "chain trace not divisible by p^i")
            phi[pc] = t // q
        space = space.intersect(_form_kernel(A, phi))
        q = m
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
    B, _, up = restrict_scalars(A)
    while isinstance(B.field, SimpleExtension):
        B, _, inner_up = restrict_scalars(B)
        up = lambda w, u1=up, u2=inner_up: u1(u2(w))
    wspace = _char_p_chain_space(B)
    E = A.field
    vecs = [up(w) for w in wspace.basis]
    space = Subspace(E, A.dim, vecs)
    deg = math.prod(F.degree for F in base_tower(E)[:-1])
    if space.dim * deg != wspace.dim:
        raise InternalVerificationFailed(
            "restricted radical is not an extension-field subspace")
    return space, "char_p_chain"


def _left_generators(A: FinAlg, space: Subspace):
    """A greedy G among the basis of an ideal J such that A*G spans J.
    The span so far is a left ideal, so adding A*v is one ``extend`` by v
    under the left multiplications by the algebra's generators."""
    lefts = _mult_maps(A, "left")
    gens = []
    span = Subspace.zero(A.field, A.dim)
    for v in space.basis:
        if not span.contains(v):
            gens.append(v)
            span = span.extend([v], lefts)
    return gens


def _nilpotency_data(A: FinAlg, space: Subspace):
    """Filtration J, J^2, ..., 0 and the nilpotency index, or None when
    the powers stop falling, that is, when J is not nilpotent.  J is
    proved an ideal once; its powers are ideals because it is, and
    J^(k+1) is the image of J^k under the right multiplications by G."""
    J = Ideal(A, space, "twosided")
    _internal(J.verify)
    if space.is_zero():
        return [J], 0
    rights = [_mult_map(A, g, "right") for g in _left_generators(A, space)]
    filtration = [J]
    while not filtration[-1].is_zero():
        cur = filtration[-1].space.image(rights)
        if cur.dim >= filtration[-1].dim:
            return None
        filtration.append(Ideal(A, cur, "twosided"))
    # the list holds J, J^2, ..., J^m with J^m the first zero power
    return filtration, len(filtration)


def _certified(A: FinAlg, space: Subspace, method: str):
    """The radical postcondition, shared by every route: ``space`` is an
    ideal, its powers fall strictly to 0, it is not all of A, and A/space
    has no radical.  Returns None when the powers stop falling; any other
    failure raises InternalVerificationFailed."""
    data = _nilpotency_data(A, space)
    if data is None:
        return None
    filtration, index = data
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


def radical(A: FinAlg) -> RadicalResult:
    """The maximal nilpotent twosided ideal, with its power filtration.

    The chosen method's answer always passes post-verification (ideal,
    nilpotent, semisimple quotient); a failure raises rather than returning
    a wrong ideal."""
    space, method = _radical_space(A)
    result = _certified(A, space, method)
    if result is None:
        raise InternalVerificationFailed(
            "radical postcondition failed: candidate radical is not nilpotent")
    return result


def _preimage(h: AlgHom, space: Subspace) -> Subspace:
    """h^(-1)(space), as the kernel of (reduce by space) o h."""
    A = h.source
    return Subspace.kernel(A.field, A.dim, [space.residue(h.map)])


def radical_from_below(h: AlgHom, below: RadicalResult) -> RadicalResult:
    """The radical of h.source, given the radical of h.target for a
    surjection h: J' = h^(-1)(J(target)) through the radical postcondition,
    or the cold ``radical`` when J' is not nilpotent."""
    result = _certified(h.source, _preimage(h, below.radical.space),
                        "preimage")
    return radical(h.source) if result is None else result


def radical_oracle(A: FinAlg) -> Ideal:
    """Brute-force radical over a prime field: the set of x such that
    1 - y*x is invertible for every y, by full enumeration."""
    K = A.field
    if not isinstance(K, PrimeField):
        raise UnsupportedField("the oracle enumerates prime-field algebras")
    p = K.p
    if p ** (2 * A.dim) > 2 ** 16:
        raise TooLarge(f"the oracle tests up to {p}^{2 * A.dim} pairs of "
                       "elements, beyond its bound of 2^16")
    elements = list(itertools.product(range(p), repeat=A.dim))
    good = [x for x in elements
            if all(Subspace.kernel(K, A.dim, [_mult_map(
                A, A.sub(A.unit, A.mul(y, x)), "left")]).is_zero()
                for y in elements)]
    space = Subspace(K, A.dim, good)
    # the set lies in its span, so it is the span iff the sizes agree
    if p ** space.dim != len(good):
        raise InternalVerificationFailed("oracle set is not a subspace")
    idl = Ideal(A, space, "twosided")
    _internal(idl.verify)
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
    inter = Subspace.span_of(K, A.dim, identity_map(K, A.dim))
    for e in dec.idempotents:
        comp = Subspace.span_of(K, Aq.dim,
                                _mult_map(Aq, Aq.sub(Aq.unit, e), "right"))
        inter = inter.intersect(_preimage(pi, comp))
    if inter != rr.radical.space:
        raise InternalVerificationFailed(
            "maximal twosided intersection differs from the radical")
    return Ideal(A, inter, "twosided")
