"""Univariate polynomials over the supported exact fields, with factorization.

Factorization is available over Q and F_p only.  Over F_p it runs squarefree
decomposition, distinct-degree splitting and seeded Cantor-Zassenhaus
equal-degree splitting.  Over Q it clears denominators, reduces modulo a
good prime, lifts the modular factorization with quadratic Hensel steps and
recombines subsets of modular factors.  No lattice reduction: recombination
is exponential in the number of modular factors.  A subset is multiplied
out only when its x^(d-1) coefficient is within Mignotte's bound, and the
subsets considered count against ``Limits.subsets``.

Every polynomial product and division here goes through the ``fields.p*``
helpers: over a field, or over the residues Z/p^k of Hensel lifting
(``_Residues``).
"""

from __future__ import annotations

import itertools
import math
import random

from . import fields
from .errors import BadSpec, TooLarge, UnsupportedField
from .fields import (Field, PrimeField, Rationals, pdeg, pdivmod, pgcd, pmod,
                     pmonic, pmul, pnormalize, ppowmod, pscale, psub, padd,
                     pderiv, peval)
from .limits import Limits


class Poly:
    """Dense univariate polynomial; coefficients low degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        self.coeffs = pnormalize(coeffs, field)

    @classmethod
    def from_ints(cls, field: Field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @classmethod
    def zero(cls, field: Field):
        return cls(field, ())

    @classmethod
    def one(cls, field: Field):
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field: Field):
        return cls(field, (field.zero, field.one))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self) -> "Poly":
        return Poly(self.field, pmonic(self.coeffs, self.field))

    def __add__(self, other):
        fields.check_same_field(self.field, other.field)
        return Poly(self.field, padd(self.coeffs, other.coeffs, self.field))

    def __sub__(self, other):
        fields.check_same_field(self.field, other.field)
        return Poly(self.field, psub(self.coeffs, other.coeffs, self.field))

    def __mul__(self, other):
        fields.check_same_field(self.field, other.field)
        return Poly(self.field, pmul(self.coeffs, other.coeffs, self.field))

    def scale(self, c):
        return Poly(self.field, pscale(self.coeffs, c, self.field))

    def __pow__(self, e: int):
        r = Poly.one(self.field)
        b = self
        while e > 0:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def divmod(self, other):
        q, r = pdivmod(self.coeffs, other.coeffs, self.field)
        return Poly(self.field, q), Poly(self.field, r)

    def __call__(self, x):
        return peval(self.coeffs, x, self.field)

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        K = self.field
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if K.is_zero(c):
                continue
            ct = K.text(c)
            if k == 0:
                terms.append(ct)
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if ct == "1" else f"({ct})*{var}")
        return "Poly(" + "+".join(terms) + ")"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    fields.check_same_field(f.field, g.field)
    return Poly(f.field, pgcd(f.coeffs, g.coeffs, f.field))


# ---------------------------------------------------------------------------
# factorization over F_p
# ---------------------------------------------------------------------------

def _fp_sqf_list(f, K):
    """Squarefree decomposition of a monic f over F_p.

    Returns [(g, m)] with f = prod g^m, the g monic squarefree and pairwise
    coprime.  Handles the f' = 0 case by taking p-th roots (Frobenius is the
    identity on F_p, so the root of a coefficient is itself).
    """
    p = K.p
    factors = []
    n = 1
    while True:
        d = pderiv(f, K)
        if d:
            g = pgcd(f, d, K)
            h = pdivmod(f, g, K)[0]
            i = 1
            while pdeg(h) > 0:
                gg = pgcd(g, h, K)
                hh = pdivmod(h, gg, K)[0]
                if pdeg(hh) > 0:
                    factors.append((hh, i * n))
                g = pdivmod(g, gg, K)[0]
                h = gg
                i += 1
            if pdeg(g) == 0:
                break
            f = g
        # here every exponent in f is a multiple of p: take the p-th root
        root = [f[i] for i in range(0, len(f), p)]
        f = pnormalize(root, K)
        n *= p
    return factors


def _fp_ddf(f, K):
    """Distinct-degree splitting of a monic squarefree f over F_p."""
    p = K.p
    out = []
    x = (K.zero, K.one)
    h = x
    d = 0
    while pdeg(f) > 0 and 2 * (d + 1) <= pdeg(f):
        d += 1
        h = ppowmod(h, p, f, K)
        g = pgcd(f, psub(h, x, K), K)
        if pdeg(g) > 0:
            out.append((g, d))
            f = pdivmod(f, g, K)[0]
            h = pmod(h, f, K)
    if pdeg(f) > 0:
        out.append((f, pdeg(f)))
    return out


def _fp_edf(f, d, K, rng):
    """Cantor-Zassenhaus equal-degree splitting; f a monic squarefree
    product of irreducibles of degree d."""
    n = pdeg(f)
    if n == d:
        return [f]
    p = K.p
    while True:
        a = pnormalize([rng.randrange(p) for _ in range(n)], K)
        if pdeg(a) < 1:
            continue
        if p == 2:
            t = a
            acc = a
            for _ in range(d - 1):
                t = pmod(pmul(t, t, K), f, K)
                acc = padd(acc, t, K)
            g = pgcd(f, acc, K)
        else:
            e = (p ** d - 1) // 2
            b = ppowmod(a, e, f, K)
            g = pgcd(f, psub(b, (K.one,), K), K)
        if 0 < pdeg(g) < n:
            rest = pdivmod(f, g, K)[0]
            return _fp_edf(g, d, K, rng) + _fp_edf(rest, d, K, rng)


def _factor_fp(f, K, rng):
    out = []
    for g, m in _fp_sqf_list(pmonic(f, K), K):
        for h, d in _fp_ddf(g, K):
            for irr in _fp_edf(h, d, K, rng):
                out.append((irr, m))
    return out


# ---------------------------------------------------------------------------
# factorization over Q: Zassenhaus with Hensel lifting
# ---------------------------------------------------------------------------

class _Residues:
    """Z/m on the symmetric range (-m/2, m/2], a ring for the fields.p*
    helpers; inv exists only for units (ValueError otherwise)."""

    zero = 0
    one = 1

    def __init__(self, m):
        self.m = m
        self.half = m // 2

    def red(self, c):
        c %= self.m
        return c - self.m if c > self.half else c

    def add(self, a, b):
        return self.red(a + b)

    def neg(self, a):
        return self.red(-a)

    def sub(self, a, b):
        return self.red(a - b)

    def mul(self, a, b):
        return self.red(a * b)

    def inv(self, a):
        return self.red(pow(a, -1, self.m))

    def is_zero(self, a):
        return a == 0

    def poly(self, f):
        """The coefficient list f reduced into this ring."""
        return pnormalize([self.red(c) for c in f], self)


def _zcontent(f):
    c = 0
    for a in f:
        c = math.gcd(c, a)
    return c


def _zprimitive(f):
    c = _zcontent(f)
    if c == 0:
        return 0, []
    if f[-1] < 0:
        c = -c
    return c, [a // c for a in f]


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: from f = g*h (mod m), s*g + t*h = 1 (mod m)
    to the same congruences mod m**2.  h must be monic."""
    R = _Residues(m * m)
    e = psub(f, pmul(g, h, R), R)
    q, r = pdivmod(pmul(s, e, R), h, R)
    G = padd(padd(g, pmul(t, e, R), R), pmul(q, g, R), R)
    H = padd(h, r, R)
    u = psub(padd(pmul(s, G, R), pmul(t, H, R), R), (1,), R)
    c, d = pdivmod(pmul(s, u, R), H, R)
    S = psub(s, d, R)
    T = psub(psub(t, pmul(t, u, R), R), pmul(c, G, R), R)
    return G, H, S, T


def _hensel_lift(p, f, fac, bound):
    """Lift the mod-p factorization lc(f)*prod(fac) of f to mod p**l with
    p**l >= bound.  fac holds monic mod-p factors as int lists; returns the
    lifted factors (symmetric representation) and the modulus."""
    modulus = p
    while modulus < bound:
        modulus *= p
    R = _Residues(modulus)
    if len(fac) == 1:
        return [pscale(f, R.inv(f[-1]), R)], modulus
    P = _Residues(p)
    k = len(fac) // 2
    g = (f[-1],)
    for fi in fac[:k]:
        g = pmul(g, fi, P)
    h = (1,)
    for fi in fac[k:]:
        h = pmul(h, fi, P)
    d, s, t = fields.pextgcd(g, h, P)
    if pdeg(d) != 0:
        raise BadSpec("modular factors not coprime")
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    left, _ = _hensel_lift(p, R.poly(g), fac[:k], bound)
    right, _ = _hensel_lift(p, R.poly(h), fac[k:], bound)
    return left + right, modulus


def _zz_value(f, a):
    """f(a) for an integer polynomial f, coefficients from the constant."""
    v = 0
    for c in reversed(f):
        v = v * a + c
    return v


def _zz_divides(g, f):
    """Exact divisibility test of primitive integer polynomials, with the
    quotient when it divides.  By Gauss's lemma g then divides f in Z[x],
    so g(a) divides f(a) for every integer a; a candidate that fails this
    at a = 2, -2 or 3 is rejected before the division over Q."""
    for a in (2, -2, 3):
        ga = _zz_value(g, a)
        if ga and _zz_value(f, a) % ga:
            return None
    q, r = pdivmod(f, g, Rationals())
    if r:
        return None
    return list(q)


def _zassenhaus(f, rng):
    """Factor a primitive squarefree integer polynomial with positive leading
    coefficient into irreducible primitive integer polynomials."""
    n = len(f) - 1
    if n == 1:
        return [f]
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (2 ** n) * norm * abs(f[-1]) + 1
    p = 2
    while True:
        p = _next_prime(p)
        if f[-1] % p == 0:
            continue
        K = PrimeField(p)
        fp = pnormalize([c % p for c in f], K)
        if pdeg(fp) != n:
            continue
        if pdeg(pgcd(fp, pderiv(fp, K), K)) == 0:
            break
    modular = [list(g) for g, _ in _factor_fp(fp, K, rng)]
    modular.sort(key=lambda g: (len(g), g))
    if len(modular) == 1:
        return [f]
    lifted, modulus = _hensel_lift(p, f, modular, bound)
    R = _Residues(modulus)
    degrees = [len(g) - 1 for g in lifted]
    subleading = [g[-2] for g in lifted]
    budget = Limits.subsets
    result = []
    rest = list(f)
    avail = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(avail):
        found = False
        # A factor h of rest of degree d has |h_(d-1)| <= |rest|_2 + (d-1) lc
        # (Mignotte; Knuth, TAOCP 2, 4.6.2), so the candidate (lc/lc(h)) h
        # of a true factor has an x^(d-1) coefficient of at most lc times it
        lc = rest[-1]                                   # > 0
        norm = math.isqrt(sum(c * c for c in rest) - 1) + 1   # >= |rest|_2
        for subset in itertools.combinations(avail, size):
            budget -= 1
            if budget < 0:
                raise TooLarge(f"recombining {len(lifted)} modular factors "
                               f"needs over {Limits.subsets} subsets")
            d = sum(degrees[i] for i in subset)
            if abs(R.red(lc * sum(subleading[i] for i in subset))) \
                    > lc * (norm + (d - 1) * lc):
                continue
            cand = (lc,)
            for i in subset:
                cand = pmul(cand, lifted[i], R)
            _, cand = _zprimitive(cand)
            if not cand:
                continue
            quo = _zz_divides(cand, rest)
            if quo is not None:
                result.append(cand)
                _, rest = _zprimitive(quo)
                avail = [i for i in avail if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if len(rest) > 1:
        result.append(rest)
    return result


def _next_prime(p):
    p += 1
    while not fields.is_prime(p):
        p += 1
    return p


def _qq_sqf_list(f, K):
    """Yun squarefree decomposition over Q for monic f."""
    out = []
    d = pgcd(f, pderiv(f, K), K)
    if pdeg(d) == 0:
        return [(f, 1)]
    b = pdivmod(f, d, K)[0]
    c = pdivmod(pderiv(f, K), d, K)[0]
    w = psub(c, pderiv(b, K), K)
    i = 1
    while pdeg(b) > 0:
        a = pgcd(b, w, K)
        if pdeg(a) > 0:
            out.append((a, i))
        b = pdivmod(b, a, K)[0]
        c = pdivmod(w, a, K)[0]
        w = psub(c, pderiv(b, K), K)
        i += 1
    return out


def _factor_qq(f, K, rng):
    out = []
    for g, m in _qq_sqf_list(pmonic(f, K), K):
        den = 1
        for c in g:
            den = den * c.denominator // math.gcd(den, c.denominator)
        zf = [int(c * den) for c in g]
        _, zf = _zprimitive(zf)
        for zfac in _zassenhaus(zf, rng):
            qfac = pmonic(tuple(zfac), K)
            out.append((qfac, m))
    return out


def factor(f: Poly, seed: int = 0):
    """Factor f into monic irreducibles over Q or F_p.

    Returns a list of (Poly, multiplicity) pairs such that the product of
    the powers times lc(f) equals f, sorted by degree then by coefficient
    sequence.  Inner randomized steps use the given seed.
    """
    if f.is_zero():
        raise BadSpec("cannot factor the zero polynomial")
    K = f.field
    rng = random.Random(seed)
    if isinstance(K, Rationals):
        raw = _factor_qq(f.coeffs, K, rng)
    elif isinstance(K, PrimeField):
        raw = _factor_fp(f.coeffs, K, rng)
    else:
        raise UnsupportedField(f"factorization over {K!r} is not supported")
    raw.sort(key=lambda item: (pdeg(item[0]), item[0]))
    return [(Poly(K, g), m) for g, m in raw]


def is_irreducible(f: Poly, seed: int = 0) -> bool:
    if f.degree < 1:
        return False
    fac = factor(f, seed)
    return len(fac) == 1 and fac[0][1] == 1
