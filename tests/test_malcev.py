import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from pca import malcev, separability
from pca.algebra import (AlgHom, Ideal, group_algebra, hom_check,
                         ideal_closure, matrix_algebra, quotient,
                         triangular_algebra, truncated_polynomial_algebra)
from pca.errors import BadSpec, NotIdempotentModJ
from pca.fields import PrimeField, Rationals
from pca.linalg import Matrix, Subspace, solve
from pca.malcev import (Splitting, check_ideal_lemma, lift_idempotent,
                        malcev_conjugator, splitting_from_complement,
                        splitting_from_section_matrix, wedderburn_splitting)
from pca.radical import RadicalResult, radical
from pca.separability import sep_idempotent

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_lift_fixed_point():
    T2 = triangular_algebra(2, Q)
    f = T2.add(T2.basis_element(0), T2.basis_element(1))  # E11 + E12
    assert lift_idempotent(T2, f) == f


def test_lift_one_plus_nilpotent():
    P2 = truncated_polynomial_algebra(Q, 2)
    f = P2.add(P2.unit, P2.basis_element(1))
    e = lift_idempotent(P2, f)
    assert e == P2.unit
    assert radical(P2).radical.contains(P2.sub(e, f))


def test_lift_rejects_non_idempotent():
    T2 = triangular_algebra(2, Q)
    f = T2.scale(Fraction(2), T2.basis_element(0))  # 2*E11: f^2 - f = 2*E11
    with pytest.raises(NotIdempotentModJ):
        lift_idempotent(T2, f)


def test_lift_random_perturbations():
    rng = random.Random(4)
    for _ in range(20):
        A = corpus.random_algebra(rng, rng.choice([Q, F2, F3]), 6)
        rad = radical(A)
        if rad.radical.is_zero():
            continue
        j = rad.radical.space.from_coords(tuple(
            A.field.random(rng) for _ in range(rad.radical.dim)))
        f = A.add(A.unit, j)
        e = lift_idempotent(A, f, rad)
        assert A.mul(e, e) == e
        assert rad.radical.contains(A.sub(e, f))


def test_splitting_semisimple_is_isomorphism():
    A = matrix_algebra(2, F3)
    s = wedderburn_splitting(A)
    assert s.image.dim == A.dim
    assert s.radical.radical.is_zero()


def test_splitting_triangular():
    T2 = triangular_algebra(2, Q)
    s = wedderburn_splitting(T2)
    assert s.image.dim == 2
    assert s.radical.radical.dim == 1
    # the image complements span{E12}
    assert s.image.intersect(s.radical.radical.space).dim == 0


def test_splitting_dual_numbers_char2():
    A = truncated_polynomial_algebra(F2, 2)
    s = wedderburn_splitting(A)
    assert s.image.basis == ((1, 0),)


def test_splitting_required_corpus():
    algebras = []
    for K in (Q, F2, F3, F5):
        algebras.append(triangular_algebra(2, K))
    for n in range(1, 6):
        algebras.append(truncated_polynomial_algebra(Q, n))
        algebras.append(truncated_polynomial_algebra(F2, n))
    algebras.append(group_algebra(2, F2))
    algebras.append(group_algebra(4, F2))
    for A in algebras:
        s = wedderburn_splitting(A)
        assert s.verify()


def test_ideal_lemma_examples():
    T2 = triangular_algebra(2, Q)
    s = wedderburn_splitting(T2)
    full = ideal_closure(T2, [T2.unit])
    upper = ideal_closure(T2, [T2.basis_element(0), T2.basis_element(1)])
    j = ideal_closure(T2, [T2.basis_element(1)])
    assert check_ideal_lemma(s, full)
    assert check_ideal_lemma(s, upper)
    assert check_ideal_lemma(s, j)


def test_ideal_lemma_exhaustive_small():
    rng = random.Random(21)
    for _ in range(12):
        A = corpus.random_algebra(rng, rng.choice([Q, F2, F3]), 4)
        s = wedderburn_splitting(A)
        spaces = []
        for i in range(A.dim):
            spaces.append(ideal_closure(A, [A.basis_element(i)]))
            for j in range(i):
                v = A.add(A.basis_element(i), A.basis_element(j))
                spaces.append(ideal_closure(A, [v]))
        for I in spaces:
            assert check_ideal_lemma(s, I)


def test_splitting_deep_filtration():
    # two radical layers: J, J^2 nonzero in the 3x3 triangular algebra
    for K in (Q, F2, F5):
        T3 = triangular_algebra(3, K)
        rad = radical(T3)
        assert rad.nilpotency_index == 3
        s1 = wedderburn_splitting(T3, seed=0)
        assert s1.image.dim == 3
        s2 = wedderburn_splitting(T3, seed=9)
        omega = malcev_conjugator(s1, s2)
        assert rad.radical.contains(omega)


def test_conjugator_trivial_cases():
    T2 = triangular_algebra(2, Q)
    s = wedderburn_splitting(T2, seed=0)
    assert malcev_conjugator(s, s) == T2.zero_element()
    M = matrix_algebra(2, F3)
    s1 = wedderburn_splitting(M, seed=0)
    s2 = wedderburn_splitting(M, seed=5)
    assert malcev_conjugator(s1, s2) == M.zero_element()


def test_conjugator_triangular_explicit():
    T2 = triangular_algebra(2, Q)
    E11, E12, E22 = (T2.basis_element(i) for i in range(3))
    diag = Subspace(Q, 3, [E11, E22])
    # conjugating the diagonal by 1 - E12 tilts it to span{E11+E12, E22-E12}
    tilted = Subspace(Q, 3, [T2.add(E11, E12), T2.sub(E22, E12)])
    s2 = splitting_from_complement(T2, diag)
    s1 = splitting_from_complement(T2, tilted)
    omega = malcev_conjugator(s1, s2)
    assert radical(T2).radical.contains(omega)
    assert omega != T2.zero_element()
    # conjugation carries the diagonal onto the tilted copy
    inv = T2.add(T2.unit, omega)  # (1 - w)^(-1) = 1 + w since w^2 = 0
    one_minus = T2.sub(T2.unit, omega)
    for v in diag.basis:
        assert tilted.contains(T2.mul(one_minus, T2.mul(v, inv)))


def test_conjugator_random_seeds():
    rng = random.Random(22)
    for trial in range(20):
        A = corpus.random_algebra(rng, rng.choice([Q, F2, F3, F5]), 6)
        s1 = wedderburn_splitting(A, seed=trial)
        s2 = wedderburn_splitting(A, seed=trial + 1000)
        omega = malcev_conjugator(s1, s2)
        assert s1.radical.radical.contains(omega)


def _dense_conjugator(s1, s2, p):
    """The conjugator as the dense bimodule path computes it: the J
    bimodule x.j = s1(x) j, j.x = j s2(x) as one dense matrix per basis
    element, d = s1 - s2 in the coordinates of J, and the closed form
    u = -sum rho(r) d(l) over the pairs of the separability idempotent p
    of A/J, checked against x.u - u.x = d(x).  Returns w = u in A."""
    A, head = s1.algebra, s1.quotient
    K, J, q = A.field, s1.radical.radical.space, s1.quotient.dim
    if J.is_zero():
        return A.zero_element()
    a1, a2 = ([s.section.apply(head.basis_element(i)) for i in range(q)]
              for s in (s1, s2))
    lam = _dense_actions(J, lambda i, v: A.mul(a1[i], v), q)
    rho = _dense_actions(J, lambda i, v: A.mul(v, a2[i]), q)
    dcols = [J.coords(A.sub(x1, x2)) for x1, x2 in zip(a1, a2)]

    def combine(vs, cs):
        # sum_t cs[t] vs[t]
        out = (K.zero,) * J.dim
        for c, v in zip(cs, vs):
            out = tuple(K.add(o, K.mul(c, y)) for o, y in zip(out, v))
        return out

    u = (K.zero,) * J.dim
    for left, right in p.pairs:
        dl = combine(dcols, left)
        rdl = combine([corpus.matrix_apply(M, dl) for M in rho], right)
        u = tuple(K.sub(a, b) for a, b in zip(u, rdl))
    for i in range(q):
        assert tuple(K.sub(a, b) for a, b in zip(
            corpus.matrix_apply(lam[i], u),
            corpus.matrix_apply(rho[i], u))) == dcols[i]
    return J.from_coords(u)


def _no_solve(*args):
    raise AssertionError("inner_derivation fell back to the solve")


def _nilpotent_inverse(A, x):
    """(1 - x)^(-1) = 1 + x + x^2 + ..., for x nilpotent."""
    out, power = A.unit, A.unit
    while power != A.zero_element():
        power = A.mul(power, x)
        out = A.add(out, power)
    return out


@pytest.mark.parametrize("K", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_conjugator_matches_dense_bimodule_path(K):
    """On random algebras with a radical and a head of dimension >= 2, w
    from the sparse bimodule and derivation maps is the closed form of the
    dense path, reached with no solve, and (1 - w) S2 (1 - w)^(-1) = S1
    holds on the basis of A/J."""
    nonzero = 0
    for seed in range(8):
        rng = random.Random(1000 + seed)
        while True:
            A = corpus.random_algebra(rng, K, 8)
            J = radical(A).radical
            if not J.is_zero() and A.dim - J.dim >= 2:
                break
        p = sep_idempotent(quotient(A, J)[0])
        for _ in range(3):
            s1, s2 = (wedderburn_splitting(A, seed=rng.randrange(100))
                      for _ in range(2))
            with pytest.MonkeyPatch.context() as mp:
                # the closed form answers: the solve is never reached
                mp.setattr(separability, "sep_idempotent", lambda _: p)
                mp.setattr(separability, "solve_maps", _no_solve)
                w = malcev_conjugator(s1, s2)
            assert w == _dense_conjugator(s1, s2, p)
            nonzero += w != A.zero_element()
            one_minus = A.sub(A.unit, w)
            inv = _nilpotent_inverse(A, w)
            assert A.mul(one_minus, inv) == A.unit
            for i in range(s1.quotient.dim):
                e = s1.quotient.basis_element(i)
                assert A.mul(one_minus, A.mul(s2.section.apply(e), inv)) \
                    == s1.section.apply(e)
    assert nonzero >= 5


def test_splitting_from_section_matrix_round_trip():
    T2 = triangular_algebra(2, Q)
    s = wedderburn_splitting(T2, seed=3)
    s2 = splitting_from_section_matrix(T2, corpus.hom_matrix(s.section))
    assert s2.image == s.image


def test_section_matrix_that_is_no_right_inverse_is_refused():
    # E11 and E22 swapped: a unital homomorphism A/J -> A whose image
    # complements J, but pi o s swaps the two basis elements of A/J
    T2 = triangular_algebra(2, Q)
    head, _ = quotient(T2, radical(T2).radical)
    swap = Matrix(Q, [[0, 1], [0, 0], [1, 0]])
    assert hom_check(swap, head, T2).verify()
    with pytest.raises(BadSpec, match="projection o section"):
        splitting_from_section_matrix(T2, swap)


def test_hand_built_splitting_is_checked_against_its_radical():
    # the image is read off the section, and a radical that is not the
    # kernel of the projection is refused
    T2 = triangular_algebra(2, Q)
    s = wedderburn_splitting(T2)
    assert s.image == Subspace(Q, T2.dim, [
        s.section.apply(s.quotient.basis_element(i))
        for i in range(s.quotient.dim)])
    e11 = Ideal(T2, Subspace(Q, T2.dim, [T2.basis_element(0)]))
    wrong = RadicalResult(e11, [e11], 2, "given")
    with pytest.raises(BadSpec, match="kernel of the projection"):
        Splitting(T2, s.quotient, s.projection, s.section, wrong).verify()


@pytest.mark.parametrize("A,layers", [
    (triangular_algebra(3, Q), 2),
    (group_algebra(8, F2), 7),
], ids=["T3Q", "F2C8"])
def test_splitting_proves_each_section_once(monkeypatch, A, layers):
    # one AlgHom proof per filtration layer; the last layer's section is
    # the splitting's own section, proved by Splitting.verify
    calls = []
    verify = AlgHom.verify

    def counting(self):
        calls.append(self)
        return verify(self)

    monkeypatch.setattr(AlgHom, "verify", counting)
    wedderburn_splitting(A, seed=1)
    assert len(radical(A).filtration) == layers + 1
    assert len(calls) == layers


def _dense_actions(space, act, n):
    """For each i < n, the dense matrix of v -> act(i, v) on ``space``, in
    the coordinates of its basis, one column per basis vector."""
    K = space.field
    return [Matrix(K, zip(*[space.coords(act(i, v)) for v in space.basis]),
                   space.dim) for i in range(n)]


def _coboundary_solve(head, fine, layer, tau):
    """The reference for ``malcev._layer_correction``: the coboundary
    system h(ab) - t(a) h(b) - h(a) t(b) = c(a, b) over the layer
    bimodule, in dense rows, one per basis pair (i, j) and coordinate r,
    in the unknowns x[r q + s], coordinate r of h(e_s), solved with its
    free coordinates zero.  Returns the columns of -h."""
    K, q, nu = fine.field, head.dim, layer.dim
    tau = Matrix.from_map(K, fine.dim, q, tau)
    tcols = tau.columns()
    lefts = _dense_actions(layer, lambda s, v: fine.mul(tcols[s], v), q)
    rights = _dense_actions(layer, lambda s, v: fine.mul(v, tcols[s]), q)
    rows, rhs = [], []
    for i in range(q):
        for j in range(q):
            prod = head.product_basis(i, j)
            c = layer.coords(fine.sub(corpus.matrix_apply(tau, prod),
                                      fine.mul(tcols[i], tcols[j])))
            for r in range(nu):
                row = [K.zero] * (nu * q)
                for s in range(q):
                    row[r * q + s] = K.add(row[r * q + s], prod[s])
                for m in range(nu):
                    row[m * q + j] = K.sub(row[m * q + j],
                                           lefts[i].data[r][m])
                    row[m * q + i] = K.sub(row[m * q + i],
                                           rights[j].data[r][m])
                rows.append(row)
                rhs.append(c[r])
    x = solve(Matrix(K, rows, nu * q), tuple(rhs))
    assert x is not None
    return [fine.sub(fine.zero_element(), layer.from_coords(x[s::q]))
            for s in range(q)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([Q, F2, F3]),
       st.integers(0, 3))
@example(20, F3, 0)      # T_3(F_3), two layers
@example(24, F3, 1)      # F_3[x]/(x^2) (x) F_3 C_3, three layers
def test_layer_correction_matches_coboundary_solve(algebra_seed, field,
                                                   seed):
    # the closed form, reduced against the inner derivations, is the
    # coboundary system's solution with free coordinates zero, on every
    # layer of the filtration
    A = corpus.random_algebra(random.Random(algebra_seed), field, 7)
    real = malcev._layer_correction
    layers = []

    def compared(head, fine, layer, tau, pairs):
        got = real(head, fine, layer, tau, pairs)
        assert got == _coboundary_solve(head, fine, layer, tau)
        layers.append(layer.dim)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(malcev, "_layer_correction", compared)
        s = wedderburn_splitting(A, seed=seed)
    assert len(layers) == len(s.radical.filtration) - 1
