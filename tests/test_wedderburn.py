import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from pca import wedderburn
from pca.algebra import (AlgHom, _trusted_algebra, base_change,
                         direct_product, group_algebra, hom_check,
                         ideal_closure, kernel, make_algebra,
                         matrix_algebra, polynomial_quotient_algebra,
                         quotient, triangular_algebra)
from pca.errors import (BadSpec, InternalVerificationFailed, NotCoprime,
                        NotSemisimple, UnsupportedField)
from pca.fields import PrimeField, Rationals, SimpleExtension
from pca.linalg import Matrix, Subspace, map_of, nullspace, rank
from pca.poly import Poly, factor
from pca.radical import radical
from pca.wedderburn import center, central_idempotents, crt_lift
from test_warm_radical import _rebased

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_center_examples():
    assert center(matrix_algebra(2, F3)).dim == 1
    assert center(group_algebra(3, Q)).dim == 3
    assert center(triangular_algebra(2, Q)).dim == 1


def test_blocks_of_rational_c3():
    dec = central_idempotents(group_algebra(3, Q))
    assert [d["total_dim"] for d in dec.block_data] == [1, 2]
    third = Fraction(1, 3)
    assert dec.idempotents[0] == (third, third, third)
    assert dec.idempotents[1] == (Fraction(2, 3), -third, -third)


def test_blocks_of_matrix_algebra():
    dec = central_idempotents(matrix_algebra(2, F3))
    assert dec.block_data == [
        {"total_dim": 4, "center_dim": 1, "matrix_degree": 2}]


def test_blocks_of_f2c3():
    dec = central_idempotents(group_algebra(3, F2))
    assert [d["total_dim"] for d in dec.block_data] == [1, 2]
    assert [d["matrix_degree"] for d in dec.block_data] == [1, 1]


def test_blocks_of_f2c7():
    dec = central_idempotents(group_algebra(7, F2))
    assert [d["total_dim"] for d in dec.block_data] == [1, 3, 3]


def test_block_count_matches_factor_count():
    for K, p in ((F2, 2), (F3, 3), (F5, 5)):
        for n in range(1, 13):
            if n % p == 0:
                continue
            dec = central_idempotents(group_algebra(n, K))
            f = Poly.from_ints(K, [-1] + [0] * (n - 1) + [1])
            assert len(dec.blocks) == len(factor(f))


def test_idempotents_orthogonal_and_complete():
    for A in (group_algebra(5, Q), direct_product([matrix_algebra(2, F3),
                                                   group_algebra(1, F3)])):
        dec = central_idempotents(A)
        total = A.zero_element()
        for i, e in enumerate(dec.idempotents):
            assert A.mul(e, e) == e
            total = A.add(total, e)
            for j in range(i):
                assert A.mul(e, dec.idempotents[j]) == A.zero_element()
        assert total == A.unit


@pytest.mark.parametrize("make", [
    lambda: group_algebra(12, Q), lambda: group_algebra(10, F3),
    lambda: direct_product([group_algebra(3, Q), matrix_algebra(2, Q)])],
    ids=["QC12", "F3C10", "QC3xM2Q"])
def test_each_split_is_checked_once_and_the_leaves_not_again(make,
                                                             monkeypatch):
    # each _split_by proves its parts; the leaves of the split tree are
    # then orthogonal and complete without a final check of the whole set
    calls = {"_split_by": 0, "_check_split": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(wedderburn, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(wedderburn, name, counted)
    A = make()
    dec = central_idempotents(A)
    assert len(dec.idempotents) > 1
    assert calls["_check_split"] == calls["_split_by"] > 0


def test_two_seeds_same_block_multiset():
    for A in (group_algebra(12, Q), group_algebra(7, F2),
              direct_product([matrix_algebra(2, F3), group_algebra(2, F3)])):
        d1 = central_idempotents(A, seed=0)
        d2 = central_idempotents(A, seed=99)
        key = lambda d: sorted((b["total_dim"], b["center_dim"])
                               for b in d.block_data)
        assert key(d1) == key(d2)


def test_not_semisimple_rejected():
    with pytest.raises(NotSemisimple):
        central_idempotents(triangular_algebra(2, Q))


def test_unsupported_field_rejected():
    E = SimpleExtension(Q, Poly.from_ints(Q, [1, 1, 1]).coeffs)
    with pytest.raises(UnsupportedField):
        central_idempotents(base_change(group_algebra(3, Q), E))


def test_base_changed_c3_splits_into_three_lines():
    # over Q(zeta_3) the cyclic algebra of order three is E x E x E:
    # exhibit the isomorphism g -> (1, z, z^2) explicitly
    E = SimpleExtension(Q, Poly.from_ints(Q, [1, 1, 1]).coeffs)
    AE = base_change(group_algebra(3, Q), E)
    lines = direct_product([group_algebra(1, E)] * 3)
    z = E.gen
    zz = E.mul(z, z)
    cols = [
        (E.one, E.one, E.one),
        (E.one, z, zz),
        (E.one, zz, E.mul(zz, zz)),
    ]
    h = hom_check(Matrix(E, zip(*cols), 3), AE, lines)
    assert rank(corpus.hom_matrix(h)) == 3


def test_crt_lift_two_linear_factors():
    A = polynomial_quotient_algebra(Poly.from_ints(Q, [2, -3, 1]))
    I1 = ideal_closure(A, [(Fraction(-1), Fraction(1))])
    I2 = ideal_closure(A, [(Fraction(-2), Fraction(1))])
    a = crt_lift(A, [I1, I2], [A.zero_element(), A.unit])
    assert a == (Fraction(-1), Fraction(1))


def test_crt_lift_single_ideal():
    A = polynomial_quotient_algebra(Poly.from_ints(Q, [2, -3, 1]))
    I1 = ideal_closure(A, [(Fraction(-1), Fraction(1))])
    t = (Fraction(5), Fraction(7))
    a = crt_lift(A, [I1], [t])
    assert I1.contains(A.sub(a, t))


def test_crt_lift_three_coordinates():
    P3 = direct_product([group_algebra(1, Q)] * 3)
    ideals = []
    for i in range(3):
        gens = [P3.basis_element(j) for j in range(3) if j != i]
        ideals.append(ideal_closure(P3, gens))
    targets = [P3.scale(Fraction(i + 1), P3.basis_element(i))
               for i in range(3)]
    assert crt_lift(P3, ideals, targets) == \
        (Fraction(1), Fraction(2), Fraction(3))


def test_crt_lift_not_coprime():
    A = polynomial_quotient_algebra(Poly.from_ints(Q, [0, 0, 1]))  # x^2
    I = ideal_closure(A, [A.basis_element(1)])
    with pytest.raises(NotCoprime):
        crt_lift(A, [I, I], [A.zero_element(), A.unit])


@pytest.mark.parametrize("ideals,targets", [(1, 2), (2, 1), (0, 0)],
                         ids=["fewer_ideals", "fewer_targets", "empty"])
def test_crt_lift_mismatched_arguments_are_bad_spec(ideals, targets):
    A = polynomial_quotient_algebra(Poly.from_ints(Q, [-1, 0, 1]))
    I = ideal_closure(A, [A.sub(A.basis_element(1), A.unit)])
    with pytest.raises(BadSpec):
        crt_lift(A, [I] * ideals, [A.unit] * targets)


def f4_algebra():
    return polynomial_quotient_algebra(Poly.from_ints(F2, [1, 1, 1]))


def test_blocks_with_isomorphic_field_factors():
    # the center F4 x F4 has no primitive element over F2 (only one
    # irreducible quadratic exists), so splitting must still find it
    A = direct_product([f4_algebra(), f4_algebra()])
    dec = central_idempotents(A)
    assert [d["total_dim"] for d in dec.block_data] == [2, 2]
    assert [d["center_dim"] for d in dec.block_data] == [2, 2]
    B = direct_product([f4_algebra(), f4_algebra(), group_algebra(1, F2)])
    dec = central_idempotents(B)
    assert sorted(d["total_dim"] for d in dec.block_data) == [1, 2, 2]


def test_blocks_of_matrix_square():
    A = direct_product([matrix_algebra(2, F2), matrix_algebra(2, F2)])
    dec = central_idempotents(A)
    assert dec.block_data == [
        {"total_dim": 4, "center_dim": 1, "matrix_degree": 2},
        {"total_dim": 4, "center_dim": 1, "matrix_degree": 2}]


def quaternion_algebra():
    """Hamilton quaternions over Q: a division algebra, not a matrix ring."""
    one, i, j, k = range(4)
    m1 = Fraction(-1)
    entries = [
        (i, i, one, m1), (j, j, one, m1), (k, k, one, m1),
        (i, j, k, Fraction(1)), (j, i, k, m1),
        (j, k, i, Fraction(1)), (k, j, i, m1),
        (k, i, j, Fraction(1)), (i, k, j, m1),
    ]
    for b in range(4):
        entries.append((one, b, b, Fraction(1)))
        if b != one:
            entries.append((b, one, b, Fraction(1)))
    return make_algebra(Q, ["1", "i", "j", "k"], entries)


def test_quaternions_single_division_block():
    H = quaternion_algebra()
    dec = central_idempotents(H)
    assert len(dec.blocks) == 1
    assert dec.block_data[0] == {"total_dim": 4, "center_dim": 1}
    assert "matrix_degree" not in dec.block_data[0]


def test_crt_lift_noncommutative_blocks():
    A = direct_product([matrix_algebra(2, F3), group_algebra(1, F3)])
    I1 = ideal_closure(A, [A.basis_element(4)])
    I2 = ideal_closure(A, [A.basis_element(i) for i in range(4)])
    t1 = (1, 2, 0, 1, 0)
    t2 = (0, 0, 0, 0, 2)
    a = crt_lift(A, [I1, I2], [t1, t2])
    assert I1.contains(A.sub(a, t1))
    assert I2.contains(A.sub(a, t2))


def test_crt_lift_random_targets():
    rng = random.Random(77)
    roots = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3)]
    f = Poly.one(Q)
    for r in roots:
        f = f * Poly(Q, (-r, Fraction(1)))
    A = polynomial_quotient_algebra(f)
    ideals = [ideal_closure(A, [(Q.neg(r), Fraction(1))
                                + (Fraction(0),) * (A.dim - 2)])
              for r in roots]
    for _ in range(10):
        targets = [tuple(Q.random(rng) for _ in range(A.dim))
                   for _ in roots]
        a = crt_lift(A, ideals, targets)
        for idl, t in zip(ideals, targets):
            assert idl.contains(A.sub(a, t))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_block_spaces_equal_dense_products_on_random_algebras(seed):
    # each block space A e is span{e_i e}, from dense FinAlg.mul products,
    # on the semisimple quotients A/J of random algebras, natural or rebased
    rng = random.Random(seed)
    K = rng.choice([F2, F3, Q])
    A = corpus.random_algebra(rng, K, 6)
    J = radical(A).radical
    if not J.is_zero():
        A = quotient(A, J)[0]
    if rng.random() < 0.5:
        A = _rebased(rng, A)
    dec = central_idempotents(A)
    for e, space in zip(dec.idempotents, dec.block_spaces):
        assert space == Subspace(K, A.dim, [A.mul(A.basis_element(i), e)
                                            for i in range(A.dim)])


def test_block_refuses_a_non_central_idempotent():
    # E11 of M_2(Q) is idempotent but not central: Ker R_E11 = A E22 is a
    # left ideal only, and the quotient by it would be no block
    A = matrix_algebra(2, Q)
    with pytest.raises(InternalVerificationFailed):
        wedderburn._block(A, A.basis_element(0), center(A))


def _dense_block(A, e):
    """The block algebra on the RREF basis of Ae, its table from one dense
    product and one ``coords`` per pair of basis vectors, with its space
    and dimension data: a reference that does not go through
    ``quotient``."""
    K = A.field
    space = Subspace(K, A.dim, [A.mul(A.basis_element(i), e)
                                for i in range(A.dim)])
    entries = []
    for i in range(space.dim):
        for j in range(space.dim):
            prod = space.coords(A.mul(space.basis[i], space.basis[j]))
            assert prod is not None
            entries.extend((i, j, k, c) for k, c in enumerate(prod)
                           if not K.is_zero(c))
    block = _trusted_algebra(K, [A.labels[p] for p in space.pivots],
                             entries, space.coords(e))
    cdim = center(block).dim
    record = {"total_dim": block.dim, "center_dim": cdim}
    if isinstance(K, PrimeField):
        record["matrix_degree"] = math.isqrt(block.dim // cdim)
    return block, space, record


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_blocks_are_isomorphic_to_dense_blocks_on_random_algebras(seed):
    # each block A/A(1-e), on the kept columns of the RREF basis of
    # Ker R_e, maps onto the dense block Ae by e_c -> e_c e: a bijective
    # homomorphism, with the dense block's dimension data
    rng = random.Random(seed)
    K = rng.choice([F2, F3, Q])
    A = corpus.random_algebra(rng, K, 6)
    J = radical(A).radical
    if not J.is_zero():
        A = quotient(A, J)[0]
    if rng.random() < 0.5:
        A = _rebased(rng, A)
    dec = central_idempotents(A)
    for e, block, data in zip(dec.idempotents, dec.blocks, dec.block_data):
        ref, space, ref_data = _dense_block(A, e)
        assert data == ref_data
        ker = Subspace(K, A.dim,
                       nullspace(corpus.mult_matrix(A, e, "right")).data)
        keep = [c for c in range(A.dim) if c not in ker.pivots]
        assert block.labels == tuple(A.labels[c] for c in keep)
        h = AlgHom(block, ref, map_of(K, [
            space.coords(A.mul(A.basis_element(c), e)) for c in keep]))
        assert h.verify()
        assert block.dim == ref.dim and kernel(h).is_zero()
