import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pca import poly
from pca.errors import BadSpec, UnsupportedField
from pca.fields import PrimeField, RationalFunctionField, Rationals
from pca.poly import Poly, factor, is_irreducible, poly_gcd

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def _recompose(f, fac):
    prod = Poly.one(f.field).scale(f.lc())
    for g, m in fac:
        prod = prod * g ** m
    return prod


def test_factor_x3_minus_1_over_q():
    f = Poly.from_ints(Q, [-1, 0, 0, 1])
    fac = factor(f)
    assert [(g.coeffs, m) for g, m in fac] == [
        ((Fraction(-1), Fraction(1)), 1),
        ((Fraction(1), Fraction(1), Fraction(1)), 1),
    ]


def test_factor_x3_minus_1_over_f3():
    fac = factor(Poly.from_ints(F3, [-1, 0, 0, 1]))
    assert [(g.coeffs, m) for g, m in fac] == [((2, 1), 3)]


def test_factor_irreducible_quadratic_over_f2():
    fac = factor(Poly.from_ints(F2, [1, 1, 1]))
    assert [(g.coeffs, m) for g, m in fac] == [((1, 1, 1), 1)]


def test_factor_x7_minus_1_over_f2():
    fac = factor(Poly.from_ints(F2, [1, 0, 0, 0, 0, 0, 0, 1]))
    assert [g.degree for g, _ in fac] == [1, 3, 3]
    assert _recompose(Poly.from_ints(F2, [1, 0, 0, 0, 0, 0, 0, 1]), fac) == \
        Poly.from_ints(F2, [1, 0, 0, 0, 0, 0, 0, 1])


def test_factor_xn_minus_1_battery():
    for K in (Q, F2, F3, F5):
        for n in range(1, 13):
            f = Poly.from_ints(K, [-1] + [0] * (n - 1) + [1])
            fac = factor(f)
            assert _recompose(f, fac) == f
            for g, _ in fac:
                assert g.is_monic()


def test_factor_with_unit_and_multiplicity():
    f = Poly.from_ints(Q, [1, -5, 6])  # (2x-1)(3x-1)
    fac = factor(f)
    assert _recompose(f, fac) == f
    assert sorted(str(g.coeffs[0]) for g, _ in fac) == ["-1/2", "-1/3"]
    g = Poly.from_ints(Q, [-1, 1]) ** 2 * Poly.from_ints(Q, [-2, 1])
    fac = factor(g)
    assert [(g_.degree, m) for g_, m in fac] == [(1, 1), (1, 2)]


def test_factor_subset_recombination():
    # (x^2-2)(x^2-3)(x^2-6) splits further modulo every prime
    f = (Poly.from_ints(Q, [-2, 0, 1]) * Poly.from_ints(Q, [-3, 0, 1])
         * Poly.from_ints(Q, [-6, 0, 1]))
    fac = factor(f)
    assert [g.degree for g, _ in fac] == [2, 2, 2]
    assert _recompose(f, fac) == f


def _swinnerton_dyer(radicands):
    """The monic polynomial whose roots are all sums of +-sqrt(a)."""
    f = Poly.x(Q)
    for a in radicands:
        # f(x + sqrt a) = even(x) + sqrt(a) odd(x), and the product with
        # f(x - sqrt a) is even^2 - a odd^2
        even = odd = Poly.zero(Q)
        for j, c in enumerate(f.coeffs):
            for i in range(j + 1):
                term = Poly(Q, [Q.zero] * (j - i)
                            + [c * math.comb(j, i) * a ** (i // 2)])
                if i % 2:
                    odd = odd + term
                else:
                    even = even + term
        f = even * even - (odd * odd).scale(Q.from_int(a))
    return f


SD16 = _swinnerton_dyer([2, 3, 5, 7])


def _int_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("f", [
    *(Poly.from_ints(Q, [-1] + [0] * (n - 1) + [1]) for n in range(2, 31)),
    SD16,
    Poly.from_ints(Q, [-1, 1, 5, 1, 6]),   # (2x+1)(3x-1)(x^2+1)
], ids=[*(f"x^{n}-1" for n in range(2, 31)), "SD16", "non_monic"])
def test_hensel_lift_invariant(monkeypatch, f):
    lifts = []
    lift = poly._hensel_lift

    def recording(p, g, fac, bound):
        out = lift(p, g, fac, bound)
        lifts.append((p, list(g), fac, bound) + out)
        return out

    monkeypatch.setattr(poly, "_hensel_lift", recording)
    factor(f)
    assert lifts
    for p, g, fac, bound, lifted, modulus in lifts:
        power = p
        while power < bound:
            power *= p
        assert modulus == power
        prod = [g[-1]]
        for h in lifted:
            prod = _int_mul(prod, h)
        assert [c % modulus for c in prod] == [c % modulus for c in g]
        assert [[c % p for c in h] for h in lifted] == [list(h) for h in fac]


def _sd16_candidates(monkeypatch):
    """Every recombination candidate of SD16, whether or not the x^(d-1)
    coefficient bound rejects it, and the (candidate, f) pairs that reach
    the divisibility test."""
    lifts, tried = [], []
    lift, divides = poly._hensel_lift, poly._zz_divides

    def recording_lift(*args):
        lifts.append(lift(*args))
        return lifts[-1]

    monkeypatch.setattr(poly, "_hensel_lift", recording_lift)
    monkeypatch.setattr(poly, "_zz_divides",
                        lambda g, f: tried.append((g, f)) or divides(g, f))
    assert is_irreducible(SD16)
    lifted, modulus = lifts[-1]         # the outermost call ends last
    R = poly._Residues(modulus)
    every = []
    for size in range(1, len(lifted) // 2 + 1):
        for subset in itertools.combinations(lifted, size):
            cand = (1,)
            for g in subset:
                cand = poly.pmul(cand, g, R)
            every.append(poly._zprimitive(cand)[1])
    return every, tried


def test_swinnerton_dyer_is_irreducible(monkeypatch):
    # it splits into 8 quadratics modulo every prime, so recombination
    # considers every subset of up to 4 of them, 8 + 28 + 56 + 70 = 162,
    # and the x^(d-1) coefficient bound lets 26 through to the
    # divisibility test; none of the 136 it rejects divides SD16
    assert SD16.degree == 16
    divides = poly._zz_divides
    every, tried = _sd16_candidates(monkeypatch)
    assert len(every) == 162 and len(tried) == 26
    assert all(g in every for g, _ in tried)
    rejected = [g for g in every if g not in [g for g, _ in tried]]
    assert len(rejected) == 136
    f = [int(c) for c in SD16.coeffs]
    assert all(divides(g, f) is None for g in rejected)


def _random_primitive(rng):
    """A primitive integer polynomial of degree 1 to 4, now and then times
    x - 2, x + 2 or x - 3, where the divisibility pretest evaluates."""
    g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
    g.append(rng.choice([-3, -2, -1, 1, 2, 3, 5]))
    if rng.random() < 0.4:
        g = _int_mul(g, rng.choice([[-2, 1], [2, 1], [-3, 1]]))
    _, g = poly._zprimitive(g)
    return g


def test_divisibility_pretest_keeps_true_factors():
    rng = random.Random(11)
    for _ in range(400):
        g, h = _random_primitive(rng), _random_primitive(rng)
        if rng.random() < 0.3:
            h = _int_mul(h, _random_primitive(rng))
        assert poly._zz_divides(g, _int_mul(g, h)) == h


def test_divisibility_pretest_rejects_before_dividing(monkeypatch):
    # every recombination candidate of SD16 that passes the x^(d-1)
    # coefficient bound fails g(a) | f(a) at a = 2, -2 or 3, so none of
    # them needs the division over Q
    divides = poly._zz_divides
    _, tried = _sd16_candidates(monkeypatch)

    def no_division(*args):
        raise AssertionError("candidate reached the division over Q")

    monkeypatch.setattr(poly, "pdivmod", no_division)
    assert len(tried) == 26
    assert all(divides(g, f) is None for g, f in tried)


@st.composite
def _irreducible_int_poly(draw):
    """A primitive ax + b, or a primitive ax^2 + bx + c with b^2 < 4ac,
    which has no real root and so is irreducible over Q."""
    a = draw(st.integers(1, 9))
    b = draw(st.integers(-40, 40))
    if draw(st.booleans()):
        g = [b, a]
    else:
        low = b * b // (4 * a) + 1
        g = [draw(st.integers(low, low + 40)), b, a]
    return poly._zprimitive(g)[1]


@settings(max_examples=150, deadline=None)
@given(factors=st.lists(_irreducible_int_poly(), min_size=2, max_size=7))
@example(factors=[[-1, 1], [-2, 1], [3, 2], [5, 1, 1], [2, -3, 4]])
def test_recombination_bound_keeps_every_true_factor(factors):
    # a true factor the x^(d-1) coefficient bound rejected would stay
    # merged with others in what is left, so the factorization of the
    # product would not be the one it was built from
    f = [1]
    for g in factors:
        f = _int_mul(f, g)
    want = {}
    for g in factors:
        monic = tuple(Fraction(c, g[-1]) for c in g)
        want[monic] = want.get(monic, 0) + 1
    assert {g.coeffs: m for g, m in factor(Poly.from_ints(Q, f))} == want


def test_factor_frobenius_powers():
    # x^9 - x^3 = x^3 (x-1)^3 (x+1)^3 over F3
    f = Poly.from_ints(F3, [0, 0, 0, -1, 0, 0, 0, 0, 0, 1])
    fac = factor(f)
    assert _recompose(f, fac) == f
    assert sorted(m for _, m in fac) == [3, 3, 3]


def test_factor_random_products_recompose():
    rng = random.Random(5)
    for K in (F2, F3, F5, Q):
        for _ in range(25):
            f = Poly.one(K)
            for _ in range(rng.randint(1, 3)):
                deg = rng.randint(1, 3)
                g = Poly(K, [K.random(rng) for _ in range(deg)] + [K.one])
                f = f * g
            if K is Q:
                f = f.scale(Q.random(rng, 3) + Fraction(7))
            fac = factor(f)
            assert _recompose(f, fac) == f


def test_small_factors_have_no_roots():
    rng = random.Random(11)
    for K in (F2, F3, F5, F7):
        for _ in range(30):
            f = Poly(K, [K.random(rng) for _ in range(rng.randint(2, 6))]
                     + [K.one])
            for g, _ in factor(f):
                if 2 <= g.degree <= 3:
                    for a in range(K.p):
                        assert not K.is_zero(g(a))


def test_factor_deterministic_and_sorted():
    f = Poly.from_ints(F5, [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1])
    first = factor(f, seed=0)
    second = factor(f, seed=0)
    assert first == second
    degs = [g.degree for g, _ in first]
    assert degs == sorted(degs)


def test_factor_errors():
    with pytest.raises(BadSpec):
        factor(Poly.zero(Q))
    with pytest.raises(UnsupportedField):
        factor(Poly.one(RationalFunctionField(2)))


def test_is_irreducible():
    assert is_irreducible(Poly.from_ints(Q, [1, 1, 1]))
    assert not is_irreducible(Poly.from_ints(Q, [-1, 0, 1]))
    assert not is_irreducible(Poly.one(Q))


def test_gcd_and_division():
    f = Poly.from_ints(Q, [-1, 0, 1])
    g = Poly.from_ints(Q, [-1, 1])
    assert poly_gcd(f, g) == g
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero()
    h = Poly.from_ints(F5, [2, 0, 1, 3])
    d = Poly.from_ints(F5, [1, 4])
    q, r = h.divmod(d)
    assert q * d + r == h


def test_poly_evaluation():
    f = Poly.from_ints(Q, [1, 2, 1])
    assert f(Fraction(2)) == Fraction(9)
    assert f(Fraction(-1)) == Fraction(0)
