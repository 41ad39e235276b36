"""Exact base fields and their scalars.

Four field kinds are supported: the rationals, prime fields F_p, the
rational function field F_p(t), and simple extensions base[x]/(minpoly).
Scalars are plain hashable Python values kept in a canonical form, so
``==`` is semantic equality:

* rationals        -> ``int`` when integral, else ``Rational`` (lowest
                      terms, denominator > 1), which agrees with
                      ``fractions.Fraction`` on ``==``, ``hash``, order and
                      ``str`` without importing it
* F_p              -> ``int`` in [0, p)
* F_p(t)           -> ``RatFunc`` (reduced fraction, monic denominator)
* simple extension -> tuple of base scalars of length deg(minpoly)

All arithmetic goes through the field object (``K.add(a, b)`` etc.), never
through floating point.
"""

from __future__ import annotations

import operator
import sys
from math import gcd, lcm

from .errors import BadSpec, DivisionByZero, FieldMismatch, TooLarge
from .limits import check_degree


# Miller-Rabin with the first 13 prime bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster,
# Math. Comp. 86, 2017).  Twelve bases would only reach
# 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 3.3 * 10**24;
    larger n are refused with BadSpec."""
    if n >= _MR_BOUND:
        raise BadSpec(f"{n} is too large for the primality test "
                      f"(limit {_MR_BOUND})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Dense univariate polynomial helpers over an arbitrary field object K.
# Polynomials are tuples of scalars, low degree first, no trailing zeros.
# Every polynomial product and division in pca goes through them: over a
# field, or over the Z/p^k residues of Hensel lifting (poly._Residues),
# which for k > 1 divide only by monic polynomials.
# ---------------------------------------------------------------------------

def pnormalize(cs, K):
    cs = list(cs)
    while cs and K.is_zero(cs[-1]):
        cs.pop()
    return tuple(cs)


def pdeg(f):
    return len(f) - 1


def padd(f, g, K):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else K.zero
        b = g[i] if i < len(g) else K.zero
        out.append(K.add(a, b))
    return pnormalize(out, K)


def pneg(f, K):
    return tuple(K.neg(c) for c in f)


def psub(f, g, K):
    return padd(f, pneg(g, K), K)


def pmul(f, g, K):
    if not f or not g:
        return ()
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if K.is_zero(a):
            continue
        for j, b in enumerate(g):
            if K.is_zero(b):
                continue
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return pnormalize(out, K)


def pscale(f, c, K):
    if K.is_zero(c):
        return ()
    return pnormalize([K.mul(c, a) for a in f], K)


def pmonic(f, K):
    if not f:
        return f
    lc = f[-1]
    if lc == K.one:
        return f
    return pscale(f, K.inv(lc), K)


def pdivmod(f, g, K):
    """Quotient and remainder of f by g; a monic g needs no inverse, so
    this also divides over a ring such as Z/p^k."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = list(f)
    q = [K.zero] * max(0, len(f) - len(g) + 1)
    inv_lc = None if g[-1] == K.one else K.inv(g[-1])
    while len(f) >= len(g) and f:
        c = f[-1] if inv_lc is None else K.mul(f[-1], inv_lc)
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] = K.sub(f[d + i], K.mul(c, b))
        while f and K.is_zero(f[-1]):
            f.pop()
    return pnormalize(q, K), pnormalize(f, K)


def pmod(f, g, K):
    return pdivmod(f, g, K)[1]


def pgcd(f, g, K):
    while g:
        f, g = g, pmod(f, g, K)
    return pmonic(f, K)


def pextgcd(f, g, K):
    """Return (d, s, t) with s*f + t*g = d, d the monic gcd."""
    r0, r1 = f, g
    s0, s1 = (K.one,), ()
    t0, t1 = (), (K.one,)
    while r1:
        q, r = pdivmod(r0, r1, K)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, K), K)
        t0, t1 = t1, psub(t0, pmul(q, t1, K), K)
    if not r0:
        return (), s0, t0
    lc_inv = K.inv(r0[-1])
    return pscale(r0, lc_inv, K), pscale(s0, lc_inv, K), pscale(t0, lc_inv, K)


def peval(f, x, K):
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


def pderiv(f, K):
    out = []
    for i in range(1, len(f)):
        out.append(K.mul(K.from_int(i), f[i]))
    return pnormalize(out, K)


def ppowmod(f, e, m, K):
    """f**e mod m by binary powering."""
    r = (K.one,)
    f = pmod(f, m, K)
    while e > 0:
        if e & 1:
            r = pmod(pmul(r, f, K), m, K)
        f = pmod(pmul(f, f, K), m, K)
        e >>= 1
    return r


# ---------------------------------------------------------------------------
# Field descriptors
# ---------------------------------------------------------------------------

class Field:
    """Base class for exact field descriptors."""

    char: int

    # subclasses set .zero and .one as canonical values

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.zero

    def from_int(self, n: int):
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def text(self, a) -> str:
        raise NotImplementedError

    def random(self, rng, height: int = 5):
        raise NotImplementedError

    def __ne__(self, other):
        return not self.__eq__(other)


_HASH = sys.hash_info


def _is_ascii_digits(text: str) -> bool:
    """One or more of 0-9: ``str.isdigit`` alone admits other scripts'
    digits and superscripts."""
    return text.isascii() and text.isdigit()


def _ratio(n: int, d: int):
    """The canonical Q scalar n/d of ints n and d != 0: an ``int`` when d
    divides n, else a ``Rational`` in lowest terms."""
    q, r = divmod(n, d)
    if not r:
        return q
    g = gcd(n, d)
    if d < 0:
        g = -g
    return Rational(n // g, d // g)


def _sum(an, ad, bn, bd):
    """The canonical scalar an/ad + bn/bd of two fractions in lowest terms
    with positive denominators.  The two gcds keep the terms as small as
    the result's (Henrici, J. ACM 3, 1956; Knuth, TAOCP 2, 4.5.1)."""
    g = gcd(ad, bd)
    if g == 1:
        return Rational(an * bd + bn * ad, ad * bd)
    s = ad // g
    t = an * (bd // g) + bn * s
    g = gcd(t, g)
    d = s * (bd // g)
    return t // g if d == 1 else Rational(t // g, d)


def _product(an, ad, bn, bd):
    """The canonical scalar (an/ad)(bn/bd) of two fractions in lowest
    terms, ad > 0 and bd != 0, cancelled across before multiplying."""
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    n, d = (an // g1) * (bn // g2), (ad // g2) * (bd // g1)
    if d < 0:
        n, d = -n, -d
    return n if d == 1 else Rational(n, d)


def _order(op):
    """The comparison ``op`` of a Rational with b, cross-multiplied over
    the positive denominators."""
    def compare(a, b):
        if type(b) is int:
            return op(a.numerator, b * a.denominator)
        try:
            return op(a.numerator * b.denominator, b.numerator * a.denominator)
        except AttributeError:
            return NotImplemented
    return compare


class Rational:
    """A Q scalar that is not an integer: ``numerator/denominator`` in
    lowest terms with ``denominator > 1``.

    Every operation returns a canonical Q scalar again, an ``int`` when the
    result is integral.  ``+ - * /`` take ``int``, ``Rational`` and
    ``fractions.Fraction`` operands on either side (any value with integer
    ``numerator`` and ``denominator`` in lowest terms), and ``==``,
    ``hash``, the order, ``str`` and ``bool`` (always true, as the value is
    not 0) agree with ``Fraction``'s, so the two mix in sets, dicts and
    sorted lists.  Only ``_ratio`` and the operations make one: the
    constructor trusts its arguments.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator

    def __add__(a, b):
        if type(b) is int:
            return Rational(a.numerator + b * a.denominator, a.denominator)
        try:
            bn, bd = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _sum(a.numerator, a.denominator, bn, bd)

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is int:
            return Rational(a.numerator - b * a.denominator, a.denominator)
        try:
            bn, bd = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _sum(a.numerator, a.denominator, -bn, bd)

    def __rsub__(a, b):
        if type(b) is int:
            return Rational(b * a.denominator - a.numerator, a.denominator)
        try:
            bn, bd = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _sum(bn, bd, -a.numerator, a.denominator)

    def __mul__(a, b):
        if type(b) is int:
            return _product(a.numerator, a.denominator, b, 1)
        try:
            bn, bd = b.numerator, b.denominator
        except AttributeError:
            return NotImplemented
        return _product(a.numerator, a.denominator, bn, bd)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is int:
            bn, bd = b, 1
        else:
            try:
                bn, bd = b.numerator, b.denominator
            except AttributeError:
                return NotImplemented
        if not bn:
            raise ZeroDivisionError("division by zero")
        return _product(a.numerator, a.denominator, bd, bn)

    def __rtruediv__(a, b):
        if type(b) is int:
            bn, bd = b, 1
        else:
            try:
                bn, bd = b.numerator, b.denominator
            except AttributeError:
                return NotImplemented
        return _product(bn, bd, a.denominator, a.numerator)

    def __neg__(a):
        return Rational(-a.numerator, a.denominator)

    def __eq__(a, b):
        if type(b) is int:
            return False
        try:
            return (a.numerator == b.numerator
                    and a.denominator == b.denominator)
        except AttributeError:
            return NotImplemented

    __lt__, __le__ = _order(operator.lt), _order(operator.le)
    __gt__, __ge__ = _order(operator.gt), _order(operator.ge)

    def __hash__(a):
        # Fraction's hash, the value's image mod the hash modulus P, which
        # is also an int's: |n| / d mod P, or inf when P divides d
        try:
            h = hash(hash(abs(a.numerator))
                     * pow(a.denominator, -1, _HASH.modulus))
        except ValueError:
            h = _HASH.inf
        h = h if a.numerator >= 0 else -h
        return -2 if h == -1 else h

    def __str__(a):
        return f"{a.numerator}/{a.denominator}"

    def __repr__(a):
        return f"Rational({a.numerator}, {a.denominator})"


def _over_common_denominator(xs):
    """(ns, d): the Q scalars ``xs`` as ints ns over their least common
    denominator d, so x = n/d for each pair; a ``Fraction``, also one over
    1, is accepted.  Only integers are multiplied here."""
    xs = tuple(xs)
    try:
        gcd(*xs)            # takes only ints: integral xs need no work
        return xs, 1
    except TypeError:
        pass
    d = lcm(*(x.denominator for x in xs if type(x) is not int))
    return [x * d if type(x) is int else x.numerator * (d // x.denominator)
            for x in xs], d


class Rationals(Field):
    """The field of rational numbers.

    A scalar is an ``int`` when it is integral and a ``Rational`` otherwise,
    so integral work runs on machine integers and no Q job loads
    ``fractions``.  ``add``, ``sub`` and ``mul`` also take
    ``fractions.Fraction`` operands, whose results they return canonical;
    no operation returns a float.
    """

    char = 0
    zero = 0
    one = 1

    # add, sub and mul run in every inner loop: int and Rational results
    # pass through, and only a Fraction operand's result is converted
    def add(self, a, b):
        r = a + b
        return r if type(r) is int or type(r) is Rational else \
            _ratio(r.numerator, r.denominator)

    def neg(self, a):
        return -a

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or type(r) is Rational else \
            _ratio(r.numerator, r.denominator)

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or type(r) is Rational else \
            _ratio(r.numerator, r.denominator)

    def inv(self, a):
        if not a:
            raise DivisionByZero("1/0 in Q")
        return _ratio(a.denominator, a.numerator)

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero in Q")
        return (_ratio(a, b) if type(a) is int is type(b) else
                _ratio(a.numerator * b.denominator, a.denominator * b.numerator))

    def is_zero(self, a):
        return not a

    def from_int(self, n):
        return n

    def parse(self, text):
        """The rational scalar grammar, "a" or "a/b": an optional sign and
        ASCII digits, then optionally a slash and ASCII digits."""
        num, slash, den = text.strip().partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        if not (_is_ascii_digits(digits)
                and (not slash or _is_ascii_digits(den))):
            raise BadSpec(f"bad rational scalar {text!r}")
        try:
            return _ratio(int(num), int(den)) if slash else int(num)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadSpec(f"bad rational scalar {text!r}") from exc

    def text(self, a):
        try:
            return str(a)
        except ValueError:      # past int's digit limit for str()
            raise TooLarge("a rational scalar has too many digits to write "
                           "out") from None

    def random(self, rng, height=5):
        return _ratio(rng.randint(-height, height), rng.randint(1, height))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """F_p for a prime machine integer p; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise BadSpec(f"{p} is not a prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"1/0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        try:
            return int(text.strip()) % self.p
        except ValueError as exc:
            raise BadSpec(f"bad F_{self.p} scalar {text!r}") from exc

    def text(self, a):
        return str(a)

    def random(self, rng, height=5):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F{self.p}"


class RatFunc:
    """A reduced fraction of F_p[t] polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num}, {self.den})"


_TERM_RE = r"^(\d+)?\*?(t(\^(\d+))?)?$"


def _fp_poly_text(cs) -> str:
    if not cs:
        return "0"
    terms = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            var = "t" if k == 1 else f"t^{k}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms)


def _fp_poly_parse(text: str, p: int):
    import re       # only here, so a Q or F_p job never loads it
    text = text.strip().replace(" ", "")
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if not text:
        raise BadSpec("empty polynomial text")
    coeffs = {}
    sign = 1
    term = ""
    pieces = []
    for ch in text + "+":
        if ch in "+-" and term:
            pieces.append((sign, term))
            sign = 1 if ch == "+" else -1
            term = ""
        elif ch in "+-" and not term:
            if ch == "-":
                sign = -sign
        else:
            term += ch
    for sgn, tm in pieces:
        m = re.match(_TERM_RE, tm)
        if not m or (m.group(1) is None and m.group(2) is None):
            raise BadSpec(f"bad polynomial term {tm!r}")
        c = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            k = 0
        elif m.group(4) is not None:
            k = int(m.group(4))
            check_degree(k)
        else:
            k = 1
        coeffs[k] = (coeffs.get(k, 0) + sgn * c) % p
    if not coeffs:
        return ()
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class RationalFunctionField(Field):
    """F_p(t): reduced fractions of F_p[t] polynomials."""

    def __init__(self, p: int):
        self.base = PrimeField(p)
        self.p = p
        self.char = p
        self.zero = RatFunc((), (1 % p,))
        self.one = RatFunc((1 % p,), (1 % p,))
        self.t = RatFunc((0, 1 % p), (1 % p,))

    def make(self, num, den):
        """Canonicalize num/den given as F_p coefficient tuples."""
        B = self.base
        num = pnormalize(num, B)
        den = pnormalize(den, B)
        if not den:
            raise DivisionByZero(f"zero denominator in F_{self.p}(t)")
        if not num:
            return self.zero
        g = pgcd(num, den, B)
        if pdeg(g) > 0:
            num = pdivmod(num, g, B)[0]
            den = pdivmod(den, g, B)[0]
        lc = den[-1]
        if lc != 1:
            c = B.inv(lc)
            num = pscale(num, c, B)
            den = pscale(den, c, B)
        return RatFunc(num, den)

    def add(self, a, b):
        B = self.base
        num = padd(pmul(a.num, b.den, B), pmul(b.num, a.den, B), B)
        return self.make(num, pmul(a.den, b.den, B))

    def neg(self, a):
        return RatFunc(pneg(a.num, self.base), a.den)

    def mul(self, a, b):
        B = self.base
        return self.make(pmul(a.num, b.num, B), pmul(a.den, b.den, B))

    def inv(self, a):
        if not a.num:
            raise DivisionByZero(f"1/0 in F_{self.p}(t)")
        return self.make(a.den, a.num)

    def is_zero(self, a):
        return not a.num

    def from_int(self, n):
        n = n % self.p
        if n == 0:
            return self.zero
        return RatFunc((n,), (1,))

    def parse(self, text):
        text = text.strip().replace(" ", "")
        if "/" in text:
            numtext, dentext = text.split("/", 1)
        else:
            numtext, dentext = text, "1"
        num = _fp_poly_parse(numtext, self.p)
        den = _fp_poly_parse(dentext, self.p)
        return self.make(num, den)

    def text(self, a):
        if a.den == (1,):
            return _fp_poly_text(a.num)
        return f"{_fp_poly_text(a.num)}/{_fp_poly_text(a.den)}"

    def random(self, rng, height=5):
        B = self.base
        num = tuple(rng.randrange(self.p) for _ in range(rng.randint(1, 3)))
        den = tuple(rng.randrange(self.p) for _ in range(rng.randint(0, 2))) + (1,)
        return self.make(pnormalize(num, B), den)

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and other.p == self.p

    def __hash__(self):
        return hash(("Ft", self.p))

    def __repr__(self):
        return f"F{self.p}(t)"


def split_top_level(text: str, sep: str = ",") -> list:
    """Split on a separator, ignoring separators nested inside brackets."""
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == sep and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        cur += ch
    parts.append(cur)
    return parts


def _tower_has_function_field(K) -> bool:
    while isinstance(K, SimpleExtension):
        K = K.base
    return isinstance(K, RationalFunctionField)


class SimpleExtension(Field):
    """base[x]/(minpoly) with minpoly monic of degree >= 2.

    Scalars are tuples of base scalars of length deg(minpoly), low power
    first.  Irreducibility of minpoly is verified by factorization when the
    base is Q or F_p; over other bases it is asserted by the caller and
    recorded in ``minpoly_verified``.
    """

    def __init__(self, base: Field, minpoly, name: str = "x"):
        minpoly = pnormalize(minpoly, base)
        if pdeg(minpoly) < 2:
            raise BadSpec("extension minpoly must have degree >= 2")
        if minpoly[-1] != base.one:
            raise BadSpec("extension minpoly must be monic")
        if isinstance(base, SimpleExtension) and _tower_has_function_field(base):
            raise BadSpec("at most one extension level over F_p(t)")
        self.base = base
        self.minpoly = minpoly
        self.name = name
        self.degree = pdeg(minpoly)
        self.char = base.char
        self.minpoly_verified = False
        if isinstance(base, (Rationals, PrimeField)):
            from .poly import Poly, factor
            fac = factor(Poly(base, minpoly))
            if len(fac) != 1 or fac[0][1] != 1:
                raise BadSpec("extension minpoly is reducible")
            self.minpoly_verified = True
        d = self.degree
        self.zero = tuple(base.zero for _ in range(d))
        one = [base.zero] * d
        one[0] = base.one
        self.one = tuple(one)
        gen = [base.zero] * d
        gen[1] = base.one
        self.gen = tuple(gen)

    def _pad(self, cs):
        return tuple(cs) + tuple(self.base.zero
                                 for _ in range(self.degree - len(cs)))

    def add(self, a, b):
        B = self.base
        return tuple(B.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        B = self.base
        return tuple(B.neg(x) for x in a)

    def sub(self, a, b):
        B = self.base
        return tuple(B.sub(x, y) for x, y in zip(a, b))

    def mul(self, a, b):
        B = self.base
        return self._pad(pmod(pmul(a, b, B), self.minpoly, B))

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("1/0 in extension field")
        B = self.base
        g, s, _ = pextgcd(pnormalize(a, B), self.minpoly, B)
        if pdeg(g) != 0:
            raise BadSpec("minpoly not irreducible: gcd witness found")
        return self._pad(s)

    def is_zero(self, a):
        B = self.base
        return all(B.is_zero(c) for c in a)

    def from_int(self, n):
        out = [self.base.zero] * self.degree
        out[0] = self.base.from_int(n)
        return tuple(out)

    def embed(self, c):
        """Embed a base scalar."""
        out = [self.base.zero] * self.degree
        out[0] = c
        return tuple(out)

    def parse(self, text):
        text = text.strip()
        if not text.startswith("["):
            return self.embed(self.base.parse(text))
        if not text.endswith("]"):
            raise BadSpec(f"bad extension scalar {text!r}")
        parts = split_top_level(text[1:-1])
        if len(parts) > self.degree:
            raise BadSpec(f"too many coefficients in {text!r}")
        out = [self.base.zero] * self.degree
        for i, piece in enumerate(parts):
            out[i] = self.base.parse(piece)
        return tuple(out)

    def text(self, a):
        return "[" + ",".join(self.base.text(c) for c in a) + "]"

    def random(self, rng, height=5):
        return tuple(self.base.random(rng, height) for _ in range(self.degree))

    def __eq__(self, other):
        return (isinstance(other, SimpleExtension) and other.base == self.base
                and other.minpoly == self.minpoly)

    def __hash__(self):
        return hash(("ext", self.base, self.minpoly))

    def __repr__(self):
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.minpoly[k] if k < len(self.minpoly) else self.base.zero
            if self.base.is_zero(c):
                continue
            ctext = self.base.text(c)
            if k == 0:
                terms.append(ctext)
            else:
                var = self.name if k == 1 else f"{self.name}^{k}"
                terms.append(var if ctext == "1" else f"({ctext})*{var}")
        return f"{self.base!r}[{self.name}]/({'+'.join(terms)})"


def check_same_field(K1: Field, K2: Field):
    if K1 != K2:
        raise FieldMismatch(f"{K1!r} vs {K2!r}")


def base_tower(K: Field):
    """The chain of fields from K down to its prime-or-rational bottom."""
    chain = [K]
    while isinstance(chain[-1], SimpleExtension):
        chain.append(chain[-1].base)
    return chain


def prime_subfield(K: Field) -> Field:
    return base_tower(K)[-1]
