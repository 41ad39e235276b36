import random
from fractions import Fraction

import corpus

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_linalg import dense_reduce, dense_rref, dense_span

from pca import algebra, linalg
from pca.algebra import (AlgHom, Ideal, base_change, direct_product,
                         group_algebra, hom_check, ideal_closure,
                         is_surjective, kernel, make_algebra, matrix_algebra,
                         minimal_polynomial, opposite,
                         polynomial_quotient_algebra, quotient,
                         restrict_scalars, tensor, triangular_algebra,
                         truncated_polynomial_algebra)
from pca.errors import (AmbientMismatch, ImproperIdeal, NoUnit, NotAHom,
                        NotAnExtension, NotAnIdeal, NotAssociative)
from pca.fields import PrimeField, RationalFunctionField, Rationals, \
    SimpleExtension
from pca.linalg import Matrix, Subspace, identity_map, vec_is_zero
from pca.malcev import lift_idempotent
from pca.poly import Poly
from pca.radical import radical
from pca.separability import nilpotent_witness
from pca.tower import make_element, power_series_tower

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


def _matrix_units_reference(n, field, upper):
    """M_n (upper False) or T_n (upper True) from explicit loops over
    pairs of positions: a reference that does not go through
    ``algebra._matrix_units``."""
    pos = [(i, j) for i in range(n) for j in range(i if upper else 0, n)]
    idx = {p: a for a, p in enumerate(pos)}
    entries = []
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                entries.append((a, b, idx[(i, l)], field.one))
    unit = [field.zero] * len(pos)
    for i in range(n):
        unit[idx[(i, i)]] = field.one
    return algebra._trusted_algebra(
        field, [f"E{i + 1}{j + 1}" for i, j in pos], entries, unit)


@pytest.mark.parametrize("K", [Q, F2], ids=["Q", "F2"])
@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_and_triangular_algebras_match_reference(K, n):
    for make, upper in ((matrix_algebra, False), (triangular_algebra, True)):
        A, ref = make(n, K), _matrix_units_reference(n, K, upper)
        assert A == ref
        assert A.labels == ref.labels


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


def test_ideal_closure_maps_each_added_row_once(monkeypatch):
    # (x) in Q[x]/(x^10) is spanned by x, ..., x^9; G = {x}, so the
    # closure has two maps, x* and *x, and adds nine rows, each of which
    # every map sees once: no map is applied to a row twice
    A = truncated_polynomial_algebra(Q, 10)
    assert A.generators() == (1,)
    maps, calls = [], []
    mult_maps = algebra._mult_maps
    apply_map = linalg._apply_map

    def captured_maps(a, sidedness):
        maps[:] = mult_maps(a, sidedness)
        calls[:] = [0] * len(maps)
        return maps

    def counted(K, cols, row):
        calls[[id(f) for f in maps].index(id(cols))] += 1
        return apply_map(K, cols, row)
    monkeypatch.setattr(algebra, "_mult_maps", captured_maps)
    monkeypatch.setattr(linalg, "_apply_map", counted)
    closed = ideal_closure(A, [A.basis_element(1)])
    assert closed.space == Subspace(Q, 10, [A.basis_element(i)
                                            for i in range(1, 10)])
    assert len(maps) == 2
    assert calls == [closed.dim, closed.dim]


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
    assert corpus.hom_matrix(pi) == Matrix(F2, [[1, 0, 0], [0, 1, 0],
                                                [0, 0, 1]])


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
    h = hom_check(Matrix(Q, [[1, 0], [0, 1]]), A, A)
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


def dense_quotient(a, ideal):
    """The reference for ``quotient``: each product e_i e_j of kept basis
    elements and each e_j projected as a dense vector, reduced one dense
    row at a time and read at the kept (non-pivot) coordinates."""
    K, space = a.field, ideal.space
    keep = [c for c in range(a.dim) if c not in space.pivots]

    def project(v):
        red = dense_reduce(K, space.basis, space.pivots, v)
        return tuple(red[c] for c in keep)

    entries = [(i, j, k, c) for i, ci in enumerate(keep)
               for j, cj in enumerate(keep)
               for k, c in enumerate(project(a.product_basis(ci, cj)))
               if not K.is_zero(c)]
    q = algebra._trusted_algebra(K, [a.labels[c] for c in keep], entries,
                                 project(a.unit))
    cols = [project(a.basis_element(j)) for j in range(a.dim)]
    return q, algebra.AlgHom(a, q, linalg.map_of(K, cols))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([Q, F2, F3]),
       st.booleans())
@example(5, Q, False)
@example(5, F3, True)
def test_quotient_matches_dense_reference(seed, field, by_filtration):
    # every ideal of the radical filtration, or the closure of a few
    # random elements; the sparse quotient builds the same algebra and
    # the same projection as the dense reference
    rng = random.Random(seed)
    A = corpus.random_algebra(rng, field, 8)
    if by_filtration:
        ideals = radical(A).filtration
    else:
        ideals = [ideal_closure(A, [tuple(field.random(rng)
                                          for _ in range(A.dim))
                                    for _ in range(rng.randint(1, 2))])]
    for I in ideals:
        if I.dim == A.dim:
            continue
        q, pi = quotient(A, I)
        ref_q, ref_pi = dense_quotient(A, I)
        assert q == ref_q and q.labels == ref_q.labels
        assert pi == ref_pi
        assert corpus.hom_matrix(pi) == corpus.hom_matrix(ref_pi)


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
    """``_mult_map``'s sparse columns against the matrix built column by
    column from ``FinAlg.mul``, for basis elements and random elements."""
    P4 = truncated_polynomial_algebra(Q, 4)
    L = algebra._mult_map(P4, P4.basis_element(1), "left")
    assert len(dense_rref(Q, Matrix.from_map(Q, 4, 4, L).data, 4)[1]) == 3
    rng = random.Random(20)
    for A in (P4, triangular_algebra(3, Q), matrix_algebra(2, F3),
              insep_extension_algebra(), corpus.random_algebra(rng, F2, 6)):
        K = A.field
        vs = [A.basis_element(i) for i in range(A.dim)]
        vs += [tuple(K.random(rng) for _ in range(A.dim)) for _ in range(3)]
        for v in vs:
            for side in ("left", "right"):
                got = Matrix.from_map(K, A.dim, A.dim,
                                      algebra._mult_map(A, v, side))
                assert got == corpus.mult_matrix(A, v, side)


def _rescaled(rng, A):
    """A on the basis l_i e_i for random nonzero rationals l_i: an
    isomorphic table whose structure constants c l_i l_j / l_k and unit
    are fractions."""
    K = A.field
    ls = [K.random(rng) or K.one for _ in range(A.dim)]
    entries = [(i, j, k, K.div(K.mul(c, K.mul(ls[i], ls[j])), ls[k]))
               for i, j, k, c in A.entries()]
    return algebra._trusted_algebra(
        K, A.labels, entries, [K.div(u, l) for u, l in zip(A.unit, ls)])


@pytest.mark.parametrize("seed", range(4))
def test_mul_over_q_matches_reference(seed):
    """``FinAlg.mul`` over Q, which multiplies on a common denominator,
    against ``corpus.reference_mul`` on fractional tables and operands,
    some of them non-canonical Fractions over 1; the product's scalars
    must be canonical."""
    rng = random.Random(seed)
    for _ in range(8):
        A = _rescaled(rng, corpus.random_algebra(rng, Q, 6))
        assert A.verify()
        for _ in range(4):
            u, v = ([rng.choice([Q.random(rng), Fraction(rng.randint(-3, 3))])
                     for _ in range(A.dim)] for _ in range(2))
            prod = A.mul(u, v)
            assert prod == corpus.reference_mul(A, u, v)
            assert all(type(a) is int or a.denominator > 1 for a in prod)
        e = A.basis_element(rng.randrange(A.dim))
        assert A.mul(A.unit, e) == e == A.mul(e, A.unit)


def test_associativity_reverify_on_corpus():
    rng = random.Random(8)
    for _ in range(10):
        A = corpus.random_algebra(rng, rng.choice([Q, F2, F3]), 6)
        assert A.verify()


# -- ideal checks against a per-product closure reference --------------------

SIDES = ("left", "right", "twosided")


def side_products(A, v, side):
    for i in range(A.dim):
        e = A.basis_element(i)
        if side != "right":
            yield A.mul(e, v)
        if side != "left":
            yield A.mul(v, e)


def reference_is_ideal(A, basis, pivots, side):
    """Every product of the basis with an e_i lies in the span, one
    dense reduction per product."""
    return all(vec_is_zero(A.field, dense_reduce(A.field, basis, pivots, w))
               for v in basis for w in side_products(A, v, side))


def reference_closure(A, gens, side):
    """(basis, pivots) of the closure, adding one product at a time."""
    K, n = A.field, A.dim
    span = dense_span(K, gens, n)
    grew = True
    while grew:
        grew = False
        for v in span[0]:
            for w in side_products(A, v, side):
                if not vec_is_zero(K, dense_reduce(K, *span, w)):
                    span = dense_span(K, list(span[0]) + [w], n)
                    grew = True
    return span


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
@example(seed=0)
def test_ideal_checks_match_per_product_reference(seed):
    # every fourth seed takes T_3, where one-sided and twosided closures
    # differ
    rng = random.Random(seed)
    K = rng.choice([Q, F2, F3])
    A = (triangular_algebra(3, K) if seed % 4 == 0
         else corpus.random_algebra(rng, K, 5))
    gens = [tuple(K.random(rng) if rng.random() < 0.4 else K.zero
                  for _ in range(A.dim)) for _ in range(rng.randint(1, 2))]
    for side in SIDES:
        closed = ideal_closure(A, gens, side)
        ref = reference_closure(A, gens, side)
        assert (closed.space.basis, closed.space.pivots) == ref
        for space in (Subspace(K, A.dim, gens), closed.space):
            for s in SIDES:
                ideal = Ideal(A, space, s)
                if reference_is_ideal(A, space.basis, space.pivots, s):
                    assert ideal.verify()
                else:
                    with pytest.raises(NotAnIdeal):
                        ideal.verify()


# -- element vectors of the wrong length --------------------------------------

# each entry point given k[x]/(x^3) and a vector v in the place of one of
# its elements; zip would truncate and the table lookups pad, so each must
# check the length itself
ELEMENT_ENTRY_POINTS = {
    "add_left": lambda A, v: A.add(v, A.unit),
    "add_right": lambda A, v: A.add(A.unit, v),
    "sub_left": lambda A, v: A.sub(v, A.unit),
    "sub_right": lambda A, v: A.sub(A.unit, v),
    "scale": lambda A, v: A.scale(2, v),
    "mul_left": lambda A, v: A.mul(v, A.unit),
    "mul_right": lambda A, v: A.mul(A.unit, v),
    "hom_apply": lambda A, v: AlgHom(A, A, identity_map(Q, 3)).apply(v),
    "contains": lambda A, v: Subspace(Q, 3, [A.unit]).contains(v),
    "coords": lambda A, v: Subspace(Q, 3, [A.unit]).coords(v),
    "lift_idempotent": lift_idempotent,
    "nilpotent_witness": nilpotent_witness,
    "make_element": lambda A, v: make_element(power_series_tower(Q, 3),
                                              [(1,), (1, 0), v]),
}


@pytest.mark.parametrize("v", [(1, 0), (1, 0, 0, 0)], ids=["short", "long"])
@pytest.mark.parametrize("entry", ELEMENT_ENTRY_POINTS)
def test_element_of_the_wrong_length_is_refused(entry, v):
    A = truncated_polynomial_algebra(Q, 3)
    ELEMENT_ENTRY_POINTS[entry](A, A.unit)      # the right length passes
    with pytest.raises(AmbientMismatch):
        ELEMENT_ENTRY_POINTS[entry](A, v)


@pytest.mark.parametrize("v", [(0,), (0, 0, 0, 0)], ids=["short", "long"])
def test_nilpotent_witness_refuses_a_zero_vector_of_the_wrong_length(v):
    # a zero vector is nilpotent before any product checks its length
    A = truncated_polynomial_algebra(Q, 3)
    assert nilpotent_witness(A, (0, 0, 0)) == 1
    with pytest.raises(AmbientMismatch):
        nilpotent_witness(A, v)


@pytest.mark.parametrize("v", [(), (1, 2, 3)], ids=["short", "long"])
def test_make_element_refuses_the_wrong_length_without_maps(v):
    # a depth-1 tower has no connecting map to apply to the coordinates
    T = power_series_tower(Q, 1)
    assert make_element(T, [(1,)]).coords == [(1,)]
    with pytest.raises(AmbientMismatch):
        make_element(T, [v])
