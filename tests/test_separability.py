import random
from fractions import Fraction

import pytest

import corpus
from pca.algebra import (base_change, direct_product, group_algebra,
                         ideal_closure, make_algebra, matrix_algebra,
                         quotient, tensor, triangular_algebra)
from pca.errors import BadSpec, NotADerivation
from pca.fields import (PrimeField, RationalFunctionField, Rationals,
                        SimpleExtension)
from pca.linalg import Matrix
from pca.poly import Poly
from pca.radical import is_semisimple
from pca.separability import (Bimodule, base_change_semisimple_check,
                              inner_derivation, is_separable,
                              multiplication_kernel_bimodule,
                              nilpotent_witness, sep_idempotent,
                              universal_derivation_check,
                              verify_sep_idempotent)

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F2T = RationalFunctionField(2)


def insep_algebra():
    return make_algebra(
        F2T, ["1", "a"],
        [(0, 0, 0, F2T.one), (0, 1, 1, F2T.one), (1, 0, 1, F2T.one),
         (1, 1, 0, F2T.t)])


def test_sep_idempotent_matrix_algebra():
    A = matrix_algebra(2, Q)
    p = sep_idempotent(A)
    assert p is not None
    assert verify_sep_idempotent(A, p.tensor_coeffs)
    # the textbook representative also passes the validator
    n = A.dim
    rep = [Q.zero] * (n * n)
    rep[0 * n + 0] = Q.one      # E11 (x) E11
    rep[2 * n + 1] = Q.one      # E21 (x) E12
    assert verify_sep_idempotent(A, tuple(rep))


def test_sep_idempotent_base_field():
    A = group_algebra(1, Q)
    p = sep_idempotent(A)
    assert p.tensor_coeffs == (Fraction(1),)


def test_sep_idempotent_inseparable_extension():
    assert sep_idempotent(insep_algebra()) is None


def test_is_separable_examples():
    assert is_separable(group_algebra(3, Q))
    assert not is_separable(group_algebra(2, F2))
    assert not is_separable(insep_algebra())


def test_pair_decomposition_reassembles():
    A = group_algebra(3, Q)
    p = sep_idempotent(A)
    n = A.dim
    total = [Q.zero] * (n * n)
    for left, right in p.pairs:
        for s, ls in enumerate(left):
            for t, rt in enumerate(right):
                total[s * n + t] = Q.add(total[s * n + t], Q.mul(ls, rt))
    assert tuple(total) == p.tensor_coeffs


def test_base_change_semisimple_check():
    E = SimpleExtension(Q, Poly.from_ints(Q, [1, 1, 1]).coeffs)
    assert base_change_semisimple_check(group_algebra(3, Q), E)
    A = triangular_algebra(2, Q)
    assert base_change_semisimple_check(A, Q) == is_semisimple(A)
    F9 = SimpleExtension(F3, Poly.from_ints(F3, [1, 0, 1]).coeffs)
    assert base_change_semisimple_check(matrix_algebra(2, F3), F9)


def test_nilpotent_witness_examples():
    E = insep_algebra()
    EE = tensor(E, E)
    x = EE.add(EE.basis_element(1), EE.basis_element(2))
    assert nilpotent_witness(EE, x) == 2
    assert nilpotent_witness(EE, EE.zero_element()) == 1
    assert nilpotent_witness(EE, EE.unit) is None


def test_inseparability_ideal_dimension():
    E = insep_algebra()
    EE = tensor(E, E)
    x = EE.add(EE.basis_element(1), EE.basis_element(2))
    assert ideal_closure(EE, [x]).dim == 2


def test_inner_derivation_zero_map():
    B = direct_product([group_algebra(1, Q), group_algebra(1, Q)])
    lam = [Matrix(Q, [[Fraction(1)]]), Matrix(Q, [[Fraction(0)]])]
    rho = [Matrix(Q, [[Fraction(0)]]), Matrix(Q, [[Fraction(1)]])]
    T = Bimodule(B, lam, rho)
    u = inner_derivation(B, T, Matrix(Q, [[Fraction(0), Fraction(0)]]))
    assert u is not None
    for i in range(2):
        diff = T.left[i].apply(u)
        assert diff == T.right[i].apply(u)


def test_inner_derivation_projection_bimodule():
    B = direct_product([group_algebra(1, Q), group_algebra(1, Q)])
    lam = [Matrix(Q, [[Fraction(1)]]), Matrix(Q, [[Fraction(0)]])]
    rho = [Matrix(Q, [[Fraction(0)]]), Matrix(Q, [[Fraction(1)]])]
    T = Bimodule(B, lam, rho)
    d = Matrix(Q, [[Fraction(1), Fraction(-1)]])
    u = inner_derivation(B, T, d)
    # d(x) = x.u - u.x must hold exactly
    for i in range(2):
        got = Q.sub(T.left[i].apply(u)[0], T.right[i].apply(u)[0])
        assert got == d.column(i)[0]


def test_derivation_on_inseparable_extension_not_inner():
    E = insep_algebra()
    lam = [E.left_mult_matrix(E.basis_element(i)) for i in range(2)]
    rho = [E.right_mult_matrix(E.basis_element(i)) for i in range(2)]
    T = Bimodule(E, lam, rho)
    d = Matrix(F2T, [[F2T.zero, F2T.one], [F2T.zero, F2T.zero]])
    assert inner_derivation(E, T, d) is None


def test_not_a_derivation_rejected():
    B = group_algebra(2, Q)
    lam = [B.left_mult_matrix(B.basis_element(i)) for i in range(2)]
    rho = [B.right_mult_matrix(B.basis_element(i)) for i in range(2)]
    T = Bimodule(B, lam, rho)
    bad = Matrix(Q, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    with pytest.raises(NotADerivation):
        inner_derivation(B, T, bad)


def test_bimodule_validation():
    B = group_algebra(2, Q)
    lam = [B.left_mult_matrix(B.basis_element(i)) for i in range(2)]
    two = Matrix(Q, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]])
    # rho(g)^2 = 4 != 1 = rho(g^2): not an anti-representation
    with pytest.raises(BadSpec):
        Bimodule(B, lam, [lam[0], two]).verify()


def test_universal_derivation_examples():
    assert universal_derivation_check(group_algebra(1, Q))
    assert universal_derivation_check(matrix_algebra(2, F3))
    assert universal_derivation_check(
        direct_product([group_algebra(1, Q), group_algebra(1, Q)]))


def test_round_trip_idempotent_reconstruction():
    for A in (group_algebra(3, Q), matrix_algebra(2, F5),
              group_algebra(3, F2)):
        p = sep_idempotent(A)
        assert p is not None
        assert universal_derivation_check(A)


def test_separability_over_extension_field():
    F9 = SimpleExtension(F3, Poly.from_ints(F3, [1, 0, 1]).coeffs)
    M = base_change(matrix_algebra(2, F3), F9)
    assert sep_idempotent(M) is not None
    assert universal_derivation_check(M)


def test_quaternions_are_separable():
    from test_wedderburn import quaternion_algebra
    H = quaternion_algebra()
    assert is_separable(H)
    assert universal_derivation_check(H)


def test_kernel_bimodule_shape():
    A = matrix_algebra(2, F3)
    T, kspace = multiplication_kernel_bimodule(A)
    assert T.space_dim == A.dim * A.dim - A.dim
    assert kspace.dim == T.space_dim


def test_quotient_of_separable_is_separable():
    for A in (group_algebra(6, Q), direct_product([matrix_algebra(2, F3),
                                                   group_algebra(2, F3)])):
        assert is_separable(A)
        for i in range(A.dim):
            I = ideal_closure(A, [A.basis_element(i)])
            if I.dim in (0, A.dim):
                continue
            B, _ = quotient(A, I)
            assert is_separable(B)


def test_separability_of_products():
    rng = random.Random(9)
    for _ in range(10):
        K = rng.choice([Q, F2, F3])
        A = corpus.random_algebra(rng, K, 4)
        B = corpus.random_algebra(rng, K, 4)
        P = direct_product([A, B])
        assert is_separable(P) == (is_separable(A) and is_separable(B))


def test_perfect_field_equivalence():
    rng = random.Random(10)
    for _ in range(15):
        A = corpus.random_algebra(rng, rng.choice([Q, F2, F3, F5]), 5)
        assert is_separable(A) == is_semisimple(A)
