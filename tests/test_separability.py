import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from pca import separability
from pca.algebra import (_mult_map, base_change, direct_product,
                         group_algebra, ideal_closure, make_algebra,
                         matrix_algebra, quotient, tensor, triangular_algebra,
                         truncated_polynomial_algebra)
from pca.errors import (BadSpec, InternalVerificationFailed, NoUnit,
                        NotADerivation)
from pca.fields import (PrimeField, RationalFunctionField, Rationals,
                        SimpleExtension)
from pca.linalg import Matrix, Subspace, identity_map, solve
from pca.poly import Poly
from pca.radical import is_semisimple
from pca.separability import (Bimodule, base_change_semisimple_check,
                              induced_bimodule, inner_derivation, is_separable,
                              multiplication_kernel_bimodule,
                              nilpotent_witness, sep_idempotent,
                              universal_derivation_check,
                              verify_sep_idempotent)
from pca.wedderburn import center
from test_linalg import dense_nullspace, dense_solve_many
from test_warm_radical import F9, _light_bases, _rebased

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


def _bimodule(B, lam, rho):
    """The Bimodule whose actions have the dense matrices lam and rho."""
    return Bimodule(B, lam[0].rows, [M.to_map() for M in lam],
                    [M.to_map() for M in rho])


def _projection_actions():
    """Q x Q acting on Q by the first factor on the left and the second on
    the right."""
    B = direct_product([group_algebra(1, Q), group_algebra(1, Q)])
    lam = [Matrix(Q, [[Fraction(1)]]), Matrix(Q, [[Fraction(0)]])]
    rho = [Matrix(Q, [[Fraction(0)]]), Matrix(Q, [[Fraction(1)]])]
    return B, lam, rho


def test_inner_derivation_zero_map():
    B, lam, rho = _projection_actions()
    T = _bimodule(B, lam, rho)
    u = inner_derivation(B, T, Matrix(Q, [[Fraction(0), Fraction(0)]])
                         .to_map())
    assert u is not None
    for i in range(2):
        diff = corpus.matrix_apply(lam[i], u)
        assert diff == corpus.matrix_apply(rho[i], u)


def test_inner_derivation_projection_bimodule():
    B, lam, rho = _projection_actions()
    T = _bimodule(B, lam, rho)
    d = Matrix(Q, [[Fraction(1), Fraction(-1)]])
    u = inner_derivation(B, T, d.to_map())
    # d(x) = x.u - u.x must hold exactly
    for i in range(2):
        got = Q.sub(corpus.matrix_apply(lam[i], u)[0],
                    corpus.matrix_apply(rho[i], u)[0])
        assert got == d.column(i)[0]


def _regular(B, side):
    """The matrices of x -> e_i x (left) or x -> x e_i (right), one per
    basis element, from ``FinAlg.mul``."""
    return [corpus.mult_matrix(B, B.basis_element(i), side)
            for i in range(B.dim)]


def _matrix_commutator(K):
    """M_2(K) as a bimodule over itself and the inner derivation
    b -> bx - xb for a fixed non-central x."""
    B = matrix_algebra(2, K)
    x = tuple(K.from_int(c) for c in (1, 2, -1, 4))
    cols = [B.sub(B.mul(B.basis_element(i), x), B.mul(x, B.basis_element(i)))
            for i in range(B.dim)]
    return (B, _regular(B, "left"), _regular(B, "right"),
            Matrix(K, zip(*cols), B.dim))


def _projection_bimodule():
    """The projection actions, with d(e_0) = 1 and d(e_1) = -1."""
    return (*_projection_actions(), Matrix(Q, [[Fraction(1), Fraction(-1)]]))


CLOSED_FORM_CASES = {
    "QxQ_on_Q": _projection_bimodule,
    "M2Q": lambda: _matrix_commutator(Q),
    "M2F3": lambda: _matrix_commutator(F3),
    "M2F5": lambda: _matrix_commutator(F5),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_inner_derivation_closed_form_needs_no_solve(monkeypatch, name):
    """Over a separable B the closed form u = -sum d(l_r) r_r is the answer,
    so the direct solve is never reached."""
    B, lam, rho, d = CLOSED_FORM_CASES[name]()
    p = sep_idempotent(B)

    def no_solve(*args):
        raise AssertionError("inner_derivation fell back to the solve")

    monkeypatch.setattr(separability, "sep_idempotent", lambda _: p)
    monkeypatch.setattr(separability, "solve_maps", no_solve)
    u = inner_derivation(B, _bimodule(B, lam, rho), d.to_map())
    K = B.field
    assert any(not K.is_zero(c) for row in d.data for c in row)
    for i in range(B.dim):
        got = tuple(K.sub(a, b) for a, b in zip(
            corpus.matrix_apply(lam[i], u), corpus.matrix_apply(rho[i], u)))
        assert got == d.column(i)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_inner_derivation_solve_is_the_dense_stacked_solve(monkeypatch, name):
    """Without a separability idempotent, u solves (L_i - R_i) u = d(e_i)
    for every i, with free coordinates zero: the solution of those dense
    rows stacked into one system."""
    B, lam, rho, d = CLOSED_FORM_CASES[name]()
    K = B.field
    monkeypatch.setattr(separability, "sep_idempotent", lambda _: None)
    rows = [tuple(K.sub(a, b) for a, b in zip(lrow, rrow))
            for i in range(B.dim)
            for lrow, rrow in zip(lam[i].data, rho[i].data)]
    rhs = [c for i in range(B.dim) for c in d.column(i)]
    assert [inner_derivation(B, _bimodule(B, lam, rho), d.to_map())] == \
        dense_solve_many(K, Matrix(K, rows, lam[0].rows), [rhs])


def test_induced_bimodule():
    B = triangular_algebra(2, Q)
    whole = Subspace(Q, B.dim, [B.basis_element(i) for i in range(B.dim)])
    T = induced_bimodule(B, whole, *(
        [_mult_map(B, B.basis_element(i), side) for i in range(B.dim)]
        for side in ("left", "right")))
    assert corpus.action_matrices(T, "left") == _regular(B, "left")
    assert corpus.action_matrices(T, "right") == _regular(B, "right")
    assert T.verify()
    G = group_algebra(2, Q)
    ones = Subspace(Q, G.dim, [G.unit])
    with pytest.raises(InternalVerificationFailed):
        induced_bimodule(G, ones, [_mult_map(G, G.basis_element(i), "left")
                                   for i in range(G.dim)],
                         [identity_map(Q, G.dim)] * G.dim)


def test_derivation_on_inseparable_extension_not_inner():
    E = insep_algebra()
    T = _bimodule(E, _regular(E, "left"), _regular(E, "right"))
    d = Matrix(F2T, [[F2T.zero, F2T.one], [F2T.zero, F2T.zero]])
    assert inner_derivation(E, T, d.to_map()) is None


def test_not_a_derivation_rejected():
    B = group_algebra(2, Q)
    T = _bimodule(B, _regular(B, "left"), _regular(B, "right"))
    bad = Matrix(Q, [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]])
    with pytest.raises(NotADerivation):
        inner_derivation(B, T, bad.to_map())


def test_bimodule_validation():
    B = group_algebra(2, Q)
    lam = _regular(B, "left")
    two = Matrix(Q, [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]])
    # rho(g)^2 = 4 != 1 = rho(g^2): not an anti-representation
    with pytest.raises(BadSpec):
        _bimodule(B, lam, [lam[0], two]).verify()


def _dense_product(K, M, N):
    return Matrix(K, [[corpus.matrix_apply(M, col)[r] for col in N.columns()]
                      for r in range(M.rows)], N.cols)


def _dense_combination(K, mats, v):
    """sum_t v[t] mats[t], entry by entry."""
    n = mats[0].rows
    out = [[K.zero] * n for _ in range(n)]
    for c, M in zip(v, mats):
        for r, row in enumerate(M.data):
            out[r] = [K.add(x, K.mul(c, a)) for x, a in zip(out[r], row)]
    return Matrix(K, out, n)


def _dense_bimodule_failure(B, lam, rho):
    """The BadSpec message of the first failing bimodule law, scanning the
    unit laws and then every pair (i, j) with dense matrix products, or
    None."""
    K, n = B.field, lam[0].rows
    ident = Matrix(K, [[K.one if r == k else K.zero for k in range(n)]
                       for r in range(n)], n)
    for side, acts in (("left", lam), ("right", rho)):
        if _dense_combination(K, acts, B.unit) != ident:
            return f"{side} action is not unital"
    for i in range(B.dim):
        for j in range(B.dim):
            prod = B.product_basis(i, j)
            if _dense_combination(K, lam, prod) != \
                    _dense_product(K, lam[i], lam[j]):
                return f"left action not multiplicative at ({i},{j})"
            if _dense_combination(K, rho, prod) != \
                    _dense_product(K, rho[j], rho[i]):
                return f"right action not anti-multiplicative at ({i},{j})"
            if _dense_product(K, lam[i], rho[j]) != \
                    _dense_product(K, rho[j], lam[i]):
                return f"actions do not commute at ({i},{j})"
    return None


@pytest.mark.parametrize("K", [Q, F5, F9], ids=["Q", "F5", "F9"])
def test_bimodule_proof_on_generators_rejects_a_left_action_as_right(K):
    """The regular bimodule of a noncommutative algebra passes; with the
    right action of one generator g replaced by its left action, the
    proof on the generators fails, and verify names the first failing pair
    of the full dense scan."""
    rng = random.Random(25)
    faults = 0
    for B in _light_bases(K, rng)[:-1]:     # all but the dimension-18 one
        lam, rho = _regular(B, "left"), _regular(B, "right")
        assert _bimodule(B, lam, rho).verify()
        for g in B.generators():
            if lam[g] == rho[g]:
                continue
            bad = rho[:g] + [lam[g]] + rho[g + 1:]
            T = _bimodule(B, lam, bad)
            assert T._failing_law(B.generators()) is not None
            with pytest.raises(BadSpec) as err:
                T.verify()
            assert err.value.args[0] == _dense_bimodule_failure(B, lam, bad)
            faults += 1
    assert faults >= 3


def test_universal_derivation_examples():
    assert universal_derivation_check(group_algebra(1, Q))
    assert universal_derivation_check(matrix_algebra(2, F3))
    assert universal_derivation_check(
        direct_product([group_algebra(1, Q), group_algebra(1, Q)]))


def test_universal_derivation_not_inner_when_inseparable():
    assert not universal_derivation_check(insep_algebra())
    assert not universal_derivation_check(truncated_polynomial_algebra(Q, 3))


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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_sep_idempotent_exactly_when_universal_derivation_is_inner(seed):
    rng = random.Random(seed)
    A = corpus.random_algebra(rng, rng.choice([Q, F2, F3]), 4)
    assert (sep_idempotent(A) is not None) == universal_derivation_check(A)


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


# -- the separability system and the center on a generating set --------------

def _reference_sep_idempotent(A):
    """The canonical solution of m(p) = 1 and (e_i (x) 1) p = p (1 (x) e_i)
    for every basis element e_i, built column by column from the products
    of basis elements, or None when there is none."""
    K, n = A.field, A.dim
    N = n * n

    def column(i, s, t):
        # (e_i (x) 1)(e_s (x) e_t) - (e_s (x) e_t)(1 (x) e_i)
        col = [K.zero] * N
        for h, c in enumerate(A.product_basis(i, s)):
            col[h * n + t] = K.add(col[h * n + t], c)
        for k, c in enumerate(A.product_basis(t, i)):
            col[s * n + k] = K.sub(col[s * n + k], c)
        return col

    cols = []
    for st in range(N):
        s, t = divmod(st, n)
        col = list(A.product_basis(s, t))
        for i in range(n):
            col += column(i, s, t)
        cols.append(col)
    rhs = list(A.unit) + [K.zero] * (n * N)
    return solve(Matrix(K, zip(*cols), N), tuple(rhs))


def _reference_center(A):
    """The center, from e_i e_j - e_j e_i = 0 for every pair of basis
    elements: the row of (i, k) holds, at column j, the e_k coefficient of
    e_i e_j - e_j e_i."""
    K, n = A.field, A.dim
    rows = []
    for i in range(n):
        cols = [A.sub(A.product_basis(i, j), A.product_basis(j, i))
                for j in range(n)]
        rows.extend(zip(*cols))
    return Subspace(K, n, dense_nullspace(K, Matrix(K, rows, n)))


def _generator_corpus(K):
    """Light's bases over K, or, for K None, QC_6, M_2(Q), T_3(Q), F_2C_4
    and F_2(t)[x]/(x^2 - t); each in its natural and a rebased basis."""
    rng = random.Random(81)
    if K is not None:
        return _light_bases(K, rng)
    named = [group_algebra(6, Q), matrix_algebra(2, Q),
             triangular_algebra(3, Q), group_algebra(4, F2), insep_algebra()]
    return named + [_rebased(rng, A) for A in named]


GENERATOR_FIELDS = pytest.mark.parametrize(
    "K", [Q, F5, F9, F2T, None], ids=["Q", "F5", "F9", "F2t", "named"])


@GENERATOR_FIELDS
def test_sep_idempotent_on_generators_matches_every_basis_element(K):
    separable = set()
    for A in _generator_corpus(K):
        want = _reference_sep_idempotent(A)
        p = sep_idempotent(A)
        assert (None if p is None else p.tensor_coeffs) == want
        separable.add(want is not None)
    assert separable == {True, False}


@GENERATOR_FIELDS
def test_center_on_generators_matches_every_basis_element(K):
    for A in _generator_corpus(K):
        assert center(A) == _reference_center(A)
    # M_2 needs two generators, and its center is the scalars
    assert len(matrix_algebra(2, Q).generators()) >= 2


@GENERATOR_FIELDS
def test_omitted_unit_is_solved_for(K):
    for A in _generator_corpus(K):
        assert make_algebra(A.field, A.labels, A.entries()).unit == A.unit


@pytest.mark.parametrize("K", [Q, F2], ids=["Q", "F2"])
def test_one_sided_unit_is_no_unit(K):
    # e_i e_j = e_j makes every e_i a left unit and none a right unit;
    # e_i e_j = e_i is the opposite table
    for k in (1, 0):
        entries = [(i, j, (i, j)[k], K.one) for i in range(2)
                   for j in range(2)]
        with pytest.raises(NoUnit):
            make_algebra(K, ["a", "b"], entries)
