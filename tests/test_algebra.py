import random
from fractions import Fraction

import corpus

import pytest

from pca.algebra import (Ideal, base_change, direct_product,
                         group_algebra, hom_check, ideal_closure,
                         is_surjective, kernel, make_algebra, matrix_algebra,
                         minimal_polynomial, opposite,
                         polynomial_quotient_algebra, quotient,
                         restrict_scalars, tensor, triangular_algebra,
                         truncated_polynomial_algebra)
from pca.errors import (ImproperIdeal, NoUnit, NotAHom, NotAnExtension,
                        NotAnIdeal, NotAssociative)
from pca.fields import PrimeField, RationalFunctionField, Rationals, \
    SimpleExtension
from pca.linalg import Matrix, Subspace, rank
from pca.poly import Poly

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F2T = RationalFunctionField(2)


def insep_extension_algebra():
    """F_2(t)[x]/(x^2 - t) as a two-dimensional algebra over F_2(t)."""
    return make_algebra(
        F2T, ["1", "a"],
        [(0, 0, 0, F2T.one), (0, 1, 1, F2T.one), (1, 0, 1, F2T.one),
         (1, 1, 0, F2T.t)])


def test_make_algebra_validates():
    T2 = triangular_algebra(2, Q)
    assert T2.dim == 3
    assert T2.verify()


def test_not_associative_witness():
    entries = [(0, 0, 0, Fraction(1)), (0, 1, 1, Fraction(1)),
               (0, 2, 2, Fraction(1)), (1, 0, 1, Fraction(1)),
               (2, 0, 2, Fraction(1)),
               (1, 1, 2, Fraction(1)), (1, 2, 0, Fraction(1))]
    with pytest.raises(NotAssociative) as err:
        make_algebra(Q, ["u", "a", "b"], entries,
                     (Fraction(1), Fraction(0), Fraction(0)))
    assert err.value.args[1] == (1, 1, 1)


def test_no_unit():
    with pytest.raises(NoUnit):
        make_algebra(F2, ["a", "b"], [(0, 0, 1, 1)])


def test_unit_solved_when_omitted():
    A = make_algebra(Q, ["e", "n"],
                     [(0, 0, 0, Fraction(1)), (0, 1, 1, Fraction(1)),
                      (1, 0, 1, Fraction(1))])
    assert A.unit == (Fraction(1), Fraction(0))


def test_group_algebra_examples():
    A = group_algebra(3, Q)
    assert A.dim == 3
    g = A.basis_element(1)
    h = A.basis_element(2)
    assert A.mul(g, h) == A.unit
    assert A.mul(g, g) == h
    assert group_algebra(1, F2).dim == 1
    C2 = group_algebra(2, F2)
    x = C2.add(C2.unit, C2.basis_element(1))
    assert C2.mul(x, x) == C2.zero_element()


def test_matrix_algebra_unit():
    M = matrix_algebra(2, F3)
    assert M.dim == 4
    assert M.unit == (1, 0, 0, 1)


def test_direct_product():
    P = direct_product([group_algebra(1, Q), group_algebra(1, Q)])
    assert P.dim == 2
    assert P.mul(P.basis_element(0), P.basis_element(1)) == P.zero_element()


def test_opposite_of_triangular_is_lower_triangular():
    T2 = triangular_algebra(2, Q)
    op = opposite(T2)
    # E11 * E12 = E12 upstairs becomes E12 * E11 = E12 downstairs
    assert op.mul(op.basis_element(1), op.basis_element(0)) == \
        op.basis_element(1)
    assert op.mul(op.basis_element(0), op.basis_element(1)) == \
        op.zero_element()


def test_opposite_involution():
    for A in (triangular_algebra(2, Q), group_algebra(4, F2),
              matrix_algebra(2, F3)):
        assert opposite(opposite(A)).entries() == A.entries()


def test_tensor_unit_factor():
    A = group_algebra(3, Q)
    TA = tensor(group_algebra(1, Q), A)
    assert TA.entries() == A.entries()


def test_tensor_dimension():
    T = tensor(triangular_algebra(2, Q), group_algebra(2, Q))
    assert T.dim == 6


def test_tensor_associative_on_small_triples():
    A = group_algebra(2, F3)
    B = truncated_polynomial_algebra(F3, 2)
    C = matrix_algebra(1, F3)
    left = tensor(tensor(A, B), C)
    right = tensor(A, tensor(B, C))
    assert left.entries() == right.entries()


def test_base_change_identity():
    A = group_algebra(3, Q)
    assert base_change(A, Q) is A


def test_base_change_to_extension():
    E = SimpleExtension(Q, Poly.from_ints(Q, [1, 1, 1]).coeffs, name="w")
    AE = base_change(group_algebra(3, Q), E)
    assert AE.dim == 3 and AE.field == E
    with pytest.raises(NotAnExtension):
        base_change(group_algebra(2, F2), E)


def test_base_change_inseparable_has_nilpotent():
    E = insep_extension_algebra()
    EF = SimpleExtension(F2T, (F2T.neg(F2T.t), F2T.zero, F2T.one))
    AE = base_change(E, EF)
    # a - alpha * 1 squares to zero in characteristic 2
    x = AE.sub(AE.basis_element(1), AE.scale(EF.gen, AE.basis_element(0)))
    assert AE.mul(x, x) == AE.zero_element()
    assert x != AE.zero_element()


def test_ideal_closure_examples():
    T2 = triangular_algebra(2, Q)
    assert ideal_closure(T2, [T2.unit]).dim == 3
    assert ideal_closure(T2, [T2.basis_element(1)]).space.basis == \
        ((Fraction(0), Fraction(1), Fraction(0)),)
    P4 = truncated_polynomial_algebra(Q, 4)
    assert ideal_closure(P4, [P4.basis_element(1)]).dim == 3


def test_ideal_validation():
    T2 = triangular_algebra(2, Q)
    with pytest.raises(NotAnIdeal):
        Ideal(T2, Subspace(Q, 3, [T2.basis_element(0)]), "twosided").verify()
    assert Ideal(T2, Subspace(Q, 3, [T2.basis_element(1)]),
                 "twosided").verify()


def test_quotient_by_zero():
    A = group_algebra(3, F2)
    Z = Ideal(A, Subspace(F2, 3, []), "twosided")
    B, pi = quotient(A, Z)
    assert B.entries() == A.entries()
    assert pi.matrix == Matrix.identity(F2, 3)


def test_quotient_truncated_polynomials():
    P4 = truncated_polynomial_algebra(Q, 4)
    I = ideal_closure(P4, [P4.basis_element(2)])
    B, pi = quotient(P4, I)
    assert B.dim == 2
    # x goes to x
    assert pi.apply(P4.basis_element(1)) == B.basis_element(1)
    assert kernel(pi) == I


def test_quotient_triangular_is_split_pair():
    T2 = triangular_algebra(2, Q)
    I = ideal_closure(T2, [T2.basis_element(1)])
    B, _ = quotient(T2, I)
    assert B.dim == 2
    assert B.mul(B.basis_element(0), B.basis_element(1)) == B.zero_element()


def test_improper_quotient():
    A = group_algebra(2, Q)
    I = ideal_closure(A, [A.unit])
    with pytest.raises(ImproperIdeal):
        quotient(A, I)


def test_hom_examples():
    A = group_algebra(2, Q)
    h = hom_check(Matrix.identity(Q, 2), A, A)
    assert is_surjective(h)
    assert kernel(h).dim == 0
    one = group_algebra(1, Q)
    aug = hom_check(Matrix(Q, [[Fraction(1), Fraction(1)]]), A, one)
    assert is_surjective(aug)
    assert kernel(aug).space.basis == ((Fraction(1), Fraction(-1)),)
    C2 = group_algebra(2, F2)
    onef = group_algebra(1, F2)
    aug2 = hom_check(Matrix(F2, [[1, 1]]), C2, onef)
    assert kernel(aug2).space.basis == ((1, 1),)


def test_not_a_hom():
    A = group_algebra(2, Q)
    one = group_algebra(1, Q)
    with pytest.raises(NotAHom):
        hom_check(Matrix(Q, [[Fraction(1), Fraction(2)]]), A, one)


def test_quotient_kernel_property_random():
    rng = random.Random(31)
    for _ in range(15):
        A = corpus.random_algebra(rng, rng.choice([Q, F2, F3]), 6)
        v = tuple(A.field.random(rng) for _ in range(A.dim))
        I = ideal_closure(A, [v])
        if I.dim in (0, A.dim):
            continue
        _, pi = quotient(A, I)
        assert kernel(pi) == I


def test_restrict_scalars_round_trip():
    F9 = SimpleExtension(F3, Poly.from_ints(F3, [1, 0, 1]).coeffs)
    A = base_change(matrix_algebra(2, F3), F9)
    B, down, up = restrict_scalars(A)
    assert B.dim == 8 and B.field == F3
    rng = random.Random(2)
    for _ in range(10):
        v = tuple(F9.random(rng) for _ in range(A.dim))
        w = tuple(F9.random(rng) for _ in range(A.dim))
        assert up(down(v)) == v
        assert down(A.mul(v, w)) == B.mul(down(v), down(w))


def test_minimal_polynomial():
    A = group_algebra(3, Q)
    assert minimal_polynomial(A, A.basis_element(1)) == \
        Poly.from_ints(Q, [-1, 0, 0, 1])
    P4 = truncated_polynomial_algebra(Q, 4)
    assert minimal_polynomial(P4, P4.basis_element(1)) == \
        Poly.from_ints(Q, [0, 0, 0, 0, 1])


def test_polynomial_quotient_algebra():
    f = Poly.from_ints(Q, [2, -3, 1])
    A = polynomial_quotient_algebra(f)
    x = A.basis_element(1)
    assert A.mul(x, x) == (Fraction(-2), Fraction(3))
    assert minimal_polynomial(A, x) == f.monic()


def test_left_right_mult_matrices():
    P4 = truncated_polynomial_algebra(Q, 4)
    L = P4.left_mult_matrix(P4.basis_element(1))
    assert rank(L) == 3
    A = triangular_algebra(2, Q)
    u = A.basis_element(1)
    assert A.left_mult_matrix(u).apply(A.basis_element(2)) == \
        A.mul(u, A.basis_element(2))
    assert A.right_mult_matrix(u).apply(A.basis_element(0)) == \
        A.mul(A.basis_element(0), u)


def test_associativity_reverify_on_corpus():
    rng = random.Random(8)
    for _ in range(10):
        A = corpus.random_algebra(rng, rng.choice([Q, F2, F3]), 6)
        assert A.verify()
