import operator
import random
import re
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pca.algebra import polynomial_quotient_algebra
from pca.errors import BadSpec, DivisionByZero, FieldMismatch, TooLarge
from pca.fields import (PrimeField, Rational, RationalFunctionField,
                        Rationals, SimpleExtension, check_same_field,
                        is_prime, prime_subfield)
from pca.limits import Limits
from pca.linalg import Matrix, rref
from pca.poly import Poly, factor
from pca.radical import radical

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F2T = RationalFunctionField(2)


def test_rational_add():
    assert Q.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)


def _is_canonical(x):
    """A canonical Q scalar: an int when integral, otherwise a Rational
    in lowest terms with denominator > 1; never a Fraction, a float or a
    bool."""
    return type(x) is int or (type(x) is Rational and x.denominator > 1
                              and gcd(x.numerator, x.denominator) == 1)


def _canonical(r: Fraction):
    return r.numerator if r.denominator == 1 else r


# any rational, also as a Fraction with denominator 1
ANY_RATIONAL = st.integers(-10 ** 30, 10 ** 30) | st.fractions()
RATIONAL = st.fractions(max_denominator=12).map(_canonical)


@settings(max_examples=300, deadline=None)
@given(a=ANY_RATIONAL, b=ANY_RATIONAL)
def test_rational_ops_return_canonical_scalars(a, b):
    fa, fb = Fraction(a), Fraction(b)
    results = [(Q.add(a, b), fa + fb), (Q.sub(a, b), fa - fb),
               (Q.mul(a, b), fa * fb), (Q.from_int(fa.numerator),
                                        Fraction(fa.numerator)),
               (Q.zero, Fraction(0)), (Q.one, Fraction(1))]
    if fb:
        results.append((Q.div(a, b), fa / fb))
        results.append((Q.inv(b), 1 / fb))
    for got, want in results:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Rational)


# the hash modulus P: Fraction hashes a value whose reduced denominator P
# divides as +-inf, and a Rational must too
P = sys.hash_info.modulus
# a Q scalar that is not an integer, as a Rational, some with denominators
# that P divides
RATIONAL_SCALAR = (
    st.fractions().filter(lambda f: f.denominator > 1)
    | st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30).filter(
        lambda n: n % P), st.sampled_from([P, 2 * P, P * P]))
).map(lambda f: Q.div(f.numerator, f.denominator))
# an operand of Rational arithmetic: an int, a Rational or a Fraction,
# also one over 1
OPERAND = (st.integers(-10 ** 30, 10 ** 30) | st.sampled_from([0, 1, -1])
           | RATIONAL_SCALAR | st.fractions()
           | st.builds(Fraction, st.sampled_from([0, 1, -1, 2 ** 70]),
                       st.sampled_from([1, P, 3 * P])))


def _fraction(x):
    """x (an int, a Rational or a Fraction) as a Fraction."""
    return Fraction(x.numerator, x.denominator)


ARITHMETIC = (operator.add, operator.sub, operator.mul, operator.truediv)
ORDER = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
         operator.ge)


@settings(max_examples=400, deadline=None)
@given(a=RATIONAL_SCALAR, b=OPERAND)
def test_rational_agrees_with_fraction(a, b):
    assert type(a) is Rational and _is_canonical(a)
    fa = _fraction(a)
    for f in (hash, str, bool, operator.neg):
        assert f(a) == f(fa)
    assert _is_canonical(-a)
    for x, y in ((a, b), (b, a)):
        fx, fy = _fraction(x), _fraction(y)
        for op in ARITHMETIC:
            if op is operator.truediv and not fy:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            got, want = op(x, y), op(fx, fy)
            assert _is_canonical(got)
            assert got == want and want == got
            assert hash(got) == hash(want) and str(got) == str(want)
        for op in ORDER:
            assert op(x, y) == op(fx, fy)


@pytest.mark.parametrize("text,value", [
    ("3", 3), ("-4/6", Fraction(-2, 3)), (" 6/3 ", 2), ("+7", 7),
    ("0/5", 0), ("-0", 0), ("1" + "0" * 40, 10 ** 40)])
def test_rational_parse_gives_canonical_scalars(text, value):
    got = Q.parse(text)
    assert got == value and _is_canonical(got)


# README's grammar is "a" or "a/b"; exponents, decimals, underscores and
# non-ASCII digits are refused before any arithmetic is done on them
@pytest.mark.parametrize("text", [
    "1e5", "1e999999999", "1.5", ".5", "1_000", "0x10", "1/ 2", "1/-2",
    "1/0", "", "+", "1/2/3", "\u0663", "9" * 5000])
def test_rational_parse_refuses_text_outside_the_grammar(text):
    with pytest.raises(BadSpec):
        Q.parse(text)


# the grammar as a regular expression, as Rationals.parse once matched it
RATIONAL_RE = r"([+-]?[0-9]+)(?:/([0-9]+))?"


def _regex_parse(text):
    """The value of ``text`` under RATIONAL_RE, or None where it is
    refused: the reference for ``Rationals.parse``."""
    m = re.fullmatch(RATIONAL_RE, text.strip())
    try:
        return m and Fraction(int(m[1]), int(m[2]) if m[2] else 1)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=300, deadline=None)
@given(text=st.text("0123456789+-/ \n_\u0661\u00b2", max_size=10))
@example(text="\u0661")
@example(text=" -\u0661/2")
@example(text="7" * 5000)
def test_rational_parse_accepts_exactly_the_regex_grammar(text):
    # ASCII digits, signs, slashes, blanks, an underscore, an Arabic-Indic
    # one and a superscript two, which str.isdigit alone would admit
    want = _regex_parse(text)
    if want is None:
        with pytest.raises(BadSpec):
            Q.parse(text)
    else:
        got = Q.parse(text)
        assert got == want and _is_canonical(got)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(RATIONAL, min_size=n, max_size=n), min_size=1, max_size=4)))
def test_rref_over_q_holds_canonical_scalars(rows):
    R, _ = rref(Matrix(Q, rows, len(rows[0])))
    assert all(_is_canonical(c) for row in R.data for c in row)


POLY = st.lists(RATIONAL, min_size=2, max_size=4).filter(lambda cs: cs[-1])


@settings(max_examples=25, deadline=None)
@given(polys=st.lists(POLY, min_size=1, max_size=3))
def test_factor_over_q_holds_canonical_scalars(polys):
    f = Poly.one(Q)
    for cs in polys:
        f = f * Poly(Q, cs)
    fac = factor(f)
    prod = Poly(Q, (f.lc(),))
    for g, m in fac:
        assert all(_is_canonical(c) for c in g.coeffs)
        for _ in range(m):
            prod = prod * g
    assert prod.coeffs == f.coeffs


@settings(max_examples=25, deadline=None)
@given(g=POLY, h=POLY)
def test_radical_over_q_holds_canonical_scalars(g, h):
    # Q[x]/(g^2 h) has a nonzero radical, and a non-monic g or h puts
    # fractions in its structure constants
    A = polynomial_quotient_algebra(Poly(Q, g) * Poly(Q, g) * Poly(Q, h))
    res = radical(A)
    assert res.radical.dim > 0
    spaces = [res.radical.space] + [J.space for J in res.filtration]
    assert all(_is_canonical(c) for c in A.unit)
    assert all(_is_canonical(c) for *_, c in A.entries())
    assert all(_is_canonical(c) for U in spaces for v in U.basis for c in v)


def test_prime_field_inverse():
    assert F5.inv(2) == 3


def test_function_field_common_denominator():
    a = F2T.parse("1/t")
    b = F2T.parse("1/t+1")
    s = F2T.add(a, b)
    assert F2T.text(s) == "1/t^2+t"
    assert s == F2T.parse("1/t^2+t")


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(BadSpec):
        PrimeField(4)
    with pytest.raises(BadSpec):
        PrimeField(1)


def test_is_prime_large_and_pseudoprimes():
    M61 = 2 ** 61 - 1
    assert is_prime(M61)
    assert PrimeField(M61).mul(M61 - 1, M61 - 1) == 1
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert not is_prime(M61 * 3)
    assert is_prime(2 ** 31 - 1) and not is_prime(2 ** 32 + 1)
    # the least strong pseudoprime to the first 12 prime bases, 2 to 37
    assert not is_prime(399165290221 * 798330580441)


# 3317044064679887385961981 is the least strong pseudoprime to the first
# 13 prime bases, so the deterministic test stops there
@pytest.mark.parametrize("n", [3317044064679887385961981, 2 ** 82,
                               2 ** 89 - 1, 2 ** 127 - 1])
def test_is_prime_refuses_beyond_deterministic_bound(n):
    with pytest.raises(BadSpec):
        is_prime(n)
    with pytest.raises(BadSpec):
        PrimeField(n)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))
    with pytest.raises(DivisionByZero):
        F5.inv(0)
    with pytest.raises(DivisionByZero):
        F2T.inv(F2T.zero)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        check_same_field(F2, F3)
    check_same_field(PrimeField(5), PrimeField(5))


def _extension_qq():
    return SimpleExtension(Q, Poly.from_ints(Q, [1, 1, 1]).coeffs, name="w")


def _extension_f2t():
    return SimpleExtension(F2T, (F2T.neg(F2T.t), F2T.zero, F2T.one))


@pytest.mark.parametrize("K", [Q, F5, F2T, _extension_qq(), _extension_f2t()],
                         ids=["Q", "F5", "F2(t)", "Q(w)", "F2(t)(sqrt t)"])
def test_canonicalization_properties(K):
    rng = random.Random(12345)
    checked = 0
    while checked < 1000:
        a = K.random(rng)
        if K.is_zero(a):
            continue
        assert K.is_zero(K.sub(a, a))
        assert K.mul(a, K.inv(a)) == K.one
        checked += 1


@pytest.mark.parametrize("K", [Q, F5, F2T, _extension_qq(), _extension_f2t()],
                         ids=["Q", "F5", "F2(t)", "Q(w)", "F2(t)(sqrt t)"])
def test_scalar_text_round_trip(K):
    rng = random.Random(99)
    for _ in range(200):
        a = K.random(rng)
        assert K.parse(K.text(a)) == a


def test_extension_reducible_minpoly_rejected():
    with pytest.raises(BadSpec):
        SimpleExtension(Q, Poly.from_ints(Q, [-1, 0, 1]).coeffs)  # x^2 - 1
    with pytest.raises(BadSpec):
        SimpleExtension(F2, Poly.from_ints(F2, [0, 1, 1]).coeffs)  # x^2 + x


def test_extension_shape_constraints():
    with pytest.raises(BadSpec):
        SimpleExtension(Q, Poly.from_ints(Q, [3, 1]).coeffs)  # degree 1
    with pytest.raises(BadSpec):
        SimpleExtension(Q, (Fraction(1), Fraction(0), Fraction(2)))  # not monic


def test_extension_verified_flag():
    assert _extension_qq().minpoly_verified
    assert not _extension_f2t().minpoly_verified


def test_extension_depth_limit_over_function_field():
    E = _extension_f2t()
    lift = [E.embed(c) for c in
            (F2T.one, F2T.zero, F2T.one)]  # x^2 + 1 over E (shape only)
    with pytest.raises(BadSpec):
        SimpleExtension(E, lift)


def test_nested_extension_over_prime_field():
    F4 = SimpleExtension(F2, Poly.from_ints(F2, [1, 1, 1]).coeffs, name="u")
    # x^2 + x + u is irreducible over F4, asserted (no factorization there)
    minpoly = (F4.gen, F4.one, F4.one)
    F16 = SimpleExtension(F4, minpoly, name="v")
    a = F16.gen
    assert F16.mul(a, F16.inv(a)) == F16.one
    assert prime_subfield(F16) == F2


def test_extension_arithmetic_against_minpoly():
    E = _extension_qq()  # w^2 + w + 1 = 0
    w = E.gen
    assert E.mul(w, E.mul(w, w)) == E.one  # w^3 = 1
    assert E.add(E.add(E.mul(w, w), w), E.one) == E.zero


def test_function_field_parse_forms():
    assert F2T.parse("t^2+1") == F2T.parse("(t^2+1)/(1)")
    assert F2T.text(F2T.parse("(t^2+1)/(t)")) == "t^2+1/t"
    assert F2T.parse("t^2+1/t") == F2T.parse("(t^2+1)/(t)")
    three_t = RationalFunctionField(5).parse("3*t")
    assert RationalFunctionField(5).text(three_t) == "3*t"


def test_function_field_degree_limit():
    top = Limits.degree
    t_top = F2T.parse(f"t^{top}")
    assert t_top == F2T.mul(F2T.parse(f"t^{top - 1}"), F2T.t)
    assert F2T.parse(f"1/t^{top}") == F2T.inv(t_top)
    for text in (f"t^{top + 1}", f"1/(t^{top + 1}+1)", "t^99999999"):
        with pytest.raises(TooLarge):
            F2T.parse(text)
