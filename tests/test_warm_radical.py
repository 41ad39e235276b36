"""The warm tower radical, the generator powers of an ideal and the sparse
associativity proof, each against a slower reference kept here.

* ``tower_radicals`` (each level from the one below) must agree with the
  cold ``radical`` of every level: the same space, the same filtration and
  the same index, on every tower kind, and must fall back to the cold route
  exactly where the preimage of the radical below is not nilpotent.
* ``_nilpotency_data`` spans J^(k+1) from J^k times a generating set G of
  J; the reference spans it from J^k times all of J.
* ``FinAlg.verify`` expands both sides of associativity from the sparse
  rows; the reference multiplies dense vectors, and both must give the same
  answer and the same first failing triple.
* Light's test: ``FinAlg.generators`` must be the plain greedy generating
  set, and the proofs on it (associativity, ideal closure, homomorphisms)
  must accept and reject exactly as the scans over every basis element.
* The char-p chain's packed integer products, powers and traces must equal
  naive triple loops, and give the same radical space.
* The char-p chain, one trace power per basis row of each level, must give
  the space of the pairwise chain, one trace power per pair of rows; it
  must make no more trace powers than the rows it cuts; and on rebased
  random F_2 and F_3 algebras the radical must equal the brute-force
  oracle.
* The trace form's kernel, read off the trace vector, must equal the
  kernel of the traces of the left multiplication matrices.
* On random algebras, natural or rebased, every power J^k of the radical
  must equal the span of the dense products of J^(k-1) and J; and on
  random surjections of small group and path algebras, quotients by an
  ideal closure and projections B x E -> B with E = E^2, the warm route
  must give the cold radical.
"""

import importlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from pca import fileio
from pca.algebra import (AlgHom, Ideal, _trusted_algebra, direct_product,
                         group_algebra, ideal_closure, matrix_algebra,
                         opposite, quotient, tensor, triangular_algebra,
                         truncated_polynomial_algebra)
from pca.errors import NoUnit, NotAHom, NotAnIdeal, NotAssociative
from pca.fields import (PrimeField, RationalFunctionField, Rationals,
                        SimpleExtension)
from pca.linalg import Matrix, Subspace, identity_map, solve
from pca.radical import (_nilpotency_data, _trace_form_space, radical,
                         radical_from_below, radical_oracle)
from pca.tower import (QuiverSpec, Tower, cyclic_group_tower,
                       kronecker_quiver, loop_quiver, path_algebra_tower,
                       power_series_tower, product_tower, tower_radicals)
from test_linalg import dense_nullspace

radical_module = importlib.import_module("pca.radical")

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F9 = SimpleExtension(F3, (1, 0, 1), name="i")     # F_3[i]/(i^2 + 1)
F4 = SimpleExtension(F2, (1, 1, 1), name="w")     # F_2[w]/(w^2 + w + 1)
F2T = RationalFunctionField(2)


def _custom_tower():
    """T_2(Q) -> Q, upper triangular matrix to its (1,1) entry: the kernel
    span(E12, E22) holds the idempotent E22, so it is not nilpotent."""
    top = triangular_algebra(2, Q)          # basis E11, E12, E22
    bottom = group_algebra(1, Q)
    h = AlgHom(top, bottom, {0: ((0, Q.one),)})
    return Tower([bottom, top], [h], "custom")


TOWERS = {
    "powerseries": lambda: power_series_tower(Q, 6),
    "cyclic_F2": lambda: cyclic_group_tower(2, F2, 4),
    "cyclic_F3": lambda: cyclic_group_tower(3, F3, 3),
    "loop": lambda: path_algebra_tower(loop_quiver(), Q, 5),
    "kronecker": lambda: path_algebra_tower(kronecker_quiver(), F3, 3),
    "with_relation": lambda: path_algebra_tower(
        QuiverSpec(["v"], [("x", "v", "v")], [[("1", ("x", "x"))]]), Q, 4),
    "product_local": lambda: product_tower(
        [group_algebra(2, F2), group_algebra(4, F2),
         truncated_polynomial_algebra(F2, 3)]),
    "product_semisimple": lambda: product_tower(
        [group_algebra(2, Q), group_algebra(3, Q), matrix_algebra(2, Q)]),
}

# how many levels above the first must take the cold route
FALLBACKS = {"product_local": 2, "product_semisimple": 2, "custom_file": 1}


def _summary(r):
    return (r.radical.space, [f.space for f in r.filtration],
            r.nilpotency_index)


def _loaded_custom_tower(tmp_path):
    path = str(tmp_path / "custom.tower")
    fileio.save_canonical(path, fileio.tower_to_doc(_custom_tower()))
    return fileio.tower_from_doc(fileio.load_json(path)[0])


@pytest.fixture
def cold_calls(monkeypatch):
    """Counts the calls of the cold ``radical`` made by the warm route."""
    calls = []

    def spy(A):
        calls.append(A)
        return radical(A)

    monkeypatch.setattr(radical_module, "radical", spy)
    return calls


@pytest.mark.parametrize("kind", [*TOWERS, "custom_file"])
def test_warm_radicals_equal_cold(kind, tmp_path, cold_calls):
    T = (_loaded_custom_tower(tmp_path) if kind == "custom_file"
         else TOWERS[kind]())
    warm = tower_radicals(T)
    assert [_summary(r) for r in warm] == \
        [_summary(radical(lvl)) for lvl in T.levels]
    # the cold route runs exactly where the preimage is not nilpotent
    fallbacks = FALLBACKS.get(kind, 0)
    assert len(cold_calls) == fallbacks
    assert sum(r.method == "preimage" for r in warm) == \
        T.depth - 1 - fallbacks


def test_product_tower_preimage_is_not_nilpotent(cold_calls):
    T = TOWERS["product_local"]()
    h = T.maps[0]
    below = radical(T.levels[0])
    pre = radical_module._preimage(h, below.radical.space)
    # the preimage holds the whole new factor, unit included
    assert pre.dim == below.radical.dim + (T.levels[1].dim
                                          - T.levels[0].dim)
    assert _nilpotency_data(T.levels[1], pre) is None
    r = radical_from_below(h, below)
    assert cold_calls == [T.levels[1]]
    assert r.method == "char_p_chain"
    assert r.radical.space == radical(T.levels[1]).radical.space


# -- powers of an ideal ------------------------------------------------------

def _reference_powers(A, space):
    """J, J^2, ... from all products of J^k with J; None if they stall."""
    powers = [space]
    cur = space
    while not cur.is_zero():
        nxt = Subspace(A.field, A.dim,
                       [A.mul(x, y) for x in cur.basis for y in space.basis])
        if nxt.dim >= cur.dim:
            return None
        powers.append(nxt)
        cur = nxt
    return powers


def _radical_corpus():
    rng = random.Random(606)
    algebras = [triangular_algebra(4, Q), group_algebra(16, F2),
                group_algebra(9, F3), truncated_polynomial_algebra(F5, 6),
                tensor(truncated_polynomial_algebra(F2, 2),
                       group_algebra(2, F2)),
                corpus.trivial_extension(group_algebra(3, Q)),
                direct_product([truncated_polynomial_algebra(Q, 3),
                                matrix_algebra(2, Q)])]
    for K in (Q, F2, F3, F5):
        algebras += [corpus.random_algebra(rng, K, 6) for _ in range(6)]
    return algebras


CORPUS = _radical_corpus()


def _reference_trace_form_space(A):
    """The kernel of [tr(L_{e_i e_j})], each trace summed off the diagonal
    of a left multiplication matrix."""
    K, n = A.field, A.dim

    def trace(M):
        acc = K.zero
        for i in range(n):
            acc = K.add(acc, M.data[i][i])
        return acc
    T = [[trace(corpus.mult_matrix(A, A.mul(A.basis_element(i),
                                            A.basis_element(j)), "left"))
          for j in range(n)] for i in range(n)]
    return Subspace(K, n, dense_nullspace(K, Matrix(K, zip(*T), n)))


@pytest.mark.parametrize("A", CORPUS, ids=[f"{i}-dim{A.dim}"
                                           for i, A in enumerate(CORPUS)])
def test_trace_form_space_equals_reference(A):
    assert _trace_form_space(A) == _reference_trace_form_space(A)


@pytest.mark.parametrize("A", CORPUS, ids=[f"{i}-dim{A.dim}"
                                           for i, A in enumerate(CORPUS)])
def test_generator_filtration_equals_reference(A):
    J = radical(A)
    assert [f.space for f in J.filtration] == \
        _reference_powers(A, J.radical.space)
    # every twosided ideal, nilpotent or not, gets the reference answer
    for ideal in corpus.coordinate_ideals(A):
        data = _nilpotency_data(A, ideal.space)
        ref = _reference_powers(A, ideal.space)
        if ref is None:
            assert data is None
        else:
            assert [f.space for f in data[0]] == ref
            assert data[1] == len(ref)


def test_non_nilpotent_ideal_with_nilpotent_complement_of_square():
    # J = N x E with N = (x) in k[x]/(x^3) and E = k: a complement V of
    # J^2 in J may be taken inside N x 0, and then J V, J V V, ... reach 0
    # although J is not nilpotent; the generator powers must see the stall
    A = direct_product([truncated_polynomial_algebra(Q, 3),
                        group_algebra(1, Q)])
    J = Subspace(Q, 4, [A.basis_element(1), A.basis_element(2),
                        A.basis_element(3)])
    assert _reference_powers(A, J) is None
    assert _nilpotency_data(A, J) is None


# -- sparse associativity proof -----------------------------------------------

def _dense_verify(A):
    """The associativity and unit check on dense vectors, multiplied by
    ``corpus.reference_mul``: None if A passes, else the exception type
    and the first failing triple or basis index."""
    n = A.dim
    mul = corpus.reference_mul
    prods = [[A.product_basis(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = mul(A, prods[i][j], A.basis_element(k))
                right = mul(A, A.basis_element(i), prods[j][k])
                if left != right:
                    return NotAssociative, (i, j, k)
    for i in range(n):
        e = A.basis_element(i)
        if mul(A, A.unit, e) != e or mul(A, e, A.unit) != e:
            return NoUnit, i
    return None


def _sparse_verify(A):
    try:
        assert A.verify() is True
    except NotAssociative as err:
        return NotAssociative, err.args[1]
    except NoUnit as err:
        prefix = "unit law fails on basis element "
        assert err.args[0].startswith(prefix)
        return NoUnit, int(err.args[0][len(prefix):])
    return None


def _perturbed(rng, A):
    """A copy of A's table with a few entries changed, added or dropped,
    and now and then another unit."""
    K = A.field
    entries = list(A.entries())
    unit = A.unit
    if rng.random() < 0.2:
        unit = tuple(K.random(rng) for _ in range(A.dim))
    for _ in range(rng.randint(0, 2)):
        choice = rng.random()
        if choice < 0.4 and entries:
            t = rng.randrange(len(entries))
            i, j, k, c = entries[t]
            entries[t] = (i, j, k, K.add(c, K.random(rng)))
        elif choice < 0.8:
            entries.append((rng.randrange(A.dim), rng.randrange(A.dim),
                            rng.randrange(A.dim), K.random(rng)))
        elif entries:
            entries.pop(rng.randrange(len(entries)))
    return _trusted_algebra(K, A.labels, entries, unit)


def _rebased(rng, A):
    """A on the basis e_i + (random multiples of e_a, a < i): dense
    structure constants whose products cancel now and then."""
    K, n = A.field, A.dim
    M = Matrix(K, [[K.one if a == i else K.random(rng) if a < i else K.zero
                    for i in range(n)] for a in range(n)], n)
    new = M.columns()
    entries = [(i, j, k, c)
               for i in range(n) for j in range(n)
               for k, c in enumerate(solve(M, A.mul(new[i], new[j])))
               if not K.is_zero(c)]
    return _trusted_algebra(K, A.labels, entries, solve(M, A.unit))


@pytest.mark.parametrize("K", [Q, F5, F9, F2T], ids=["Q", "F5", "F9", "F2t"])
def test_sparse_verify_matches_dense_reference(K):
    rng = random.Random(61)
    bases = [group_algebra(3, K), truncated_polynomial_algebra(K, 4),
             triangular_algebra(2, K), matrix_algebra(2, K),
             tensor(truncated_polynomial_algebra(K, 2), group_algebra(2, K))]
    bases += [_rebased(rng, A) for A in bases]
    # T_2 on E11, E12, E22 with E11 taken for the unit: the left unit law
    # fails first at E22 and the right one at E12; the opposite table
    # swaps the two laws, and either way NoUnit names E12
    T = triangular_algebra(2, K)
    for A in (T, opposite(T)):
        A = _trusted_algebra(K, A.labels, A.entries(), A.basis_element(0))
        assert _sparse_verify(A) == _dense_verify(A) == (NoUnit, 1)
    outcomes = set()
    for _ in range(60):
        A = _perturbed(rng, rng.choice(bases))
        expected = _dense_verify(A)
        assert _sparse_verify(A) == expected
        outcomes.add(expected if expected is None else expected[0])
    # the perturbations reach the accepting and both rejecting answers
    assert outcomes == {None, NotAssociative, NoUnit}


# -- Light's test: proofs on a generating set --------------------------------

def _light_bases(K, rng):
    """Associative unital tables in their natural and a rebased basis, and
    M_3 (x) K[x]/(x^2) in its natural basis, where most products of two
    basis elements vanish."""
    bases = [group_algebra(3, K), truncated_polynomial_algebra(K, 4),
             triangular_algebra(2, K), matrix_algebra(2, K),
             tensor(truncated_polynomial_algebra(K, 2), group_algebra(2, K)),
             direct_product([truncated_polynomial_algebra(K, 2),
                             group_algebra(2, K)])]
    return bases + [_rebased(rng, A) for A in bases] + [
        tensor(matrix_algebra(3, K), truncated_polynomial_algebra(K, 2))]


def _reference_generators(A):
    """The greedy G on Subspace: from span{1}, take each basis element
    outside the span in turn, and close the span under left
    multiplication by G after each."""
    K, n = A.field, A.dim
    gens = []
    span = Subspace(K, n, [A.unit])
    for i in range(n):
        e = A.basis_element(i)
        if span.contains(e):
            continue
        gens.append(i)
        span = span.extend([e])
        while True:
            bigger = span.extend(A.mul(A.basis_element(g), w)
                                 for g in gens for w in span.basis)
            if bigger.dim == span.dim:
                break
            span = bigger
    assert span.dim == n
    return tuple(gens)


@pytest.mark.parametrize("K", [Q, F5, F9, F2T], ids=["Q", "F5", "F9", "F2t"])
def test_generator_search_is_the_greedy_one(K):
    # perturbed tables include ones whose unit law fails, where adding
    # e_g 1 to the span instead of e_g gives another G
    rng = random.Random(71)
    bases = _light_bases(K, rng)
    for _ in range(60):
        A = _perturbed(rng, rng.choice(bases))
        assert A.generators() == _reference_generators(A)


@pytest.mark.parametrize("K", [Q, F5, F9, F2T], ids=["Q", "F5", "F9", "F2t"])
def test_generator_proof_matches_full_scan(K):
    rng = random.Random(72)
    bases = _light_bases(K, rng)
    outcomes = set()
    for _ in range(80):
        A = _perturbed(rng, rng.choice(bases))
        proved = A._generator_proof()
        assert proved == (_dense_verify(A) is None)
        outcomes.add(proved)
    assert outcomes == {True, False}
    # the proof is short where the table is generated by few elements
    assert len(group_algebra(16, K).generators()) == 1


def _reference_closure(A, vectors, sidedness):
    """The closure of the span of ``vectors`` under multiplication by every
    basis element on the declared sides."""
    space = Subspace(A.field, A.dim, vectors)
    while True:
        prods = []
        for v in space.basis:
            for i in range(A.dim):
                e = A.basis_element(i)
                if sidedness != "right":
                    prods.append(A.mul(e, v))
                if sidedness != "left":
                    prods.append(A.mul(v, e))
        bigger = space.extend(prods)
        if bigger.dim == space.dim:
            return space
        space = bigger


@pytest.mark.parametrize("K", [Q, F5, F9], ids=["Q", "F5", "F9"])
def test_ideal_closure_on_generators_matches_every_basis_element(K):
    rng = random.Random(73)
    bases = _light_bases(K, rng) + [group_algebra(9, K)]
    for _ in range(60):
        A = rng.choice(bases)
        side = rng.choice(["left", "right", "twosided"])
        vectors = [tuple(K.random(rng) if rng.random() < 0.4 else K.zero
                         for _ in range(A.dim))
                   for _ in range(rng.randint(1, 2))]
        expected = _reference_closure(A, vectors, side)
        assert ideal_closure(A, vectors, side).space == expected
        # a random subspace is proved an ideal exactly when it is closed
        space = Subspace(K, A.dim, vectors)
        try:
            proved = Ideal(A, space, side).verify()
        except NotAnIdeal:
            proved = False
        assert proved == (expected == space)


def _unital_perturbation(rng, h):
    """h's matrix plus v f, with f a functional that vanishes on the
    source's unit, so the map stays unital."""
    K, src = h.source.field, h.source
    f = [K.random(rng) for _ in range(src.dim)]
    t = next(i for i, c in enumerate(src.unit) if not K.is_zero(c))
    rest = K.zero
    for i, (a, u) in enumerate(zip(f, src.unit)):
        if i != t:
            rest = K.add(rest, K.mul(a, u))
    f[t] = K.neg(K.div(rest, src.unit[t]))
    v = [K.random(rng) for _ in range(h.target.dim)]
    data = [[K.add(x, K.mul(v[r], f[c])) for c, x in enumerate(row)]
            for r, row in enumerate(corpus.hom_matrix(h).data)]
    return AlgHom(src, h.target, Matrix(K, data, src.dim).to_map())


def _dense_failing_pair(h):
    """The first (i, j) with phi(e_i e_j) != phi(e_i) phi(e_j), the
    product of the images by ``corpus.reference_mul``, or None."""
    src, M = h.source, corpus.hom_matrix(h)
    cols = M.columns()
    for i in range(src.dim):
        for j in range(src.dim):
            prod = corpus.matrix_apply(M, src.product_basis(i, j))
            if prod != corpus.reference_mul(h.target, cols[i], cols[j]):
                return i, j
    return None


@pytest.mark.parametrize("K", [Q, F5, F9], ids=["Q", "F5", "F9"])
def test_hom_proof_on_generators_rejects_non_multiplicative_maps(K):
    rng = random.Random(74)
    homs = []
    for A in _light_bases(K, rng):
        homs.append(AlgHom(A, A, identity_map(K, A.dim)))
        J = radical(A).radical
        if not J.is_zero():
            homs.append(quotient(A, J)[1])
    outcomes = set()
    for _ in range(60):
        h = rng.choice(homs)
        if rng.random() < 0.7:
            h = _unital_perturbation(rng, h)
        full = _dense_failing_pair(h)
        assert h._failing_pair(range(h.source.dim)) == full
        try:
            proved = h.verify()
        except NotAHom as err:
            proved = False
            assert err.args[1] == full
        assert proved == (full is None)
        assert (h._failing_pair(h.source.generators()) is None) == proved
        outcomes.add(proved)
    assert outcomes == {True, False}


# -- the char-p chain's integer kernel -----------------------------------------

def _naive_imat_mul(a, b, m):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n)]
            for i in range(n)]


def _worst_case_matrix(rng, n, m):
    """Entries in [0, m), about half of them m - 1, with one row and one
    column all m - 1, so some product entry reaches n (m - 1)^2."""
    a = [[m - 1 if rng.random() < 0.5 else rng.randrange(m)
          for _ in range(n)] for _ in range(n)]
    a[0] = [m - 1] * n
    for row in a:
        row[-1] = m - 1
    return a


@pytest.mark.parametrize("m", [4, 8, 9, 27, 64])
def test_packed_imat_mul_matches_naive(m):
    rng = random.Random(m)
    for n in (1, 2, 3, 5, 8, 16, 31, 32):
        a, b = _worst_case_matrix(rng, n, m), _worst_case_matrix(rng, n, m)
        assert radical_module._imat_mul(a, b, m) == _naive_imat_mul(a, b, m)
        assert radical_module._imat_mul(a, a, m) == _naive_imat_mul(a, a, m)


@pytest.mark.parametrize("m", [4, 9, 64])
def test_imat_power_and_trace_match_repeated_products(m):
    rng = random.Random(100 + m)
    a = _worst_case_matrix(rng, 6, m)
    power = a
    for e in range(1, 18):
        assert radical_module._imat_pow(a, e, m) == power
        if e >= 2:
            assert radical_module._trace_pow(a, e, m) == \
                sum(power[i][i] for i in range(6)) % m
        power = _naive_imat_mul(power, a, m)


def _old_trace_pow(x, e, m):
    """tr(x^e) mod m by squaring from the identity on naive products."""
    n = len(x)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    while e:
        if e & 1:
            out = _naive_imat_mul(out, x, m)
        x = _naive_imat_mul(x, x, m)
        e >>= 1
    return sum(out[i][i] for i in range(n)) % m


@pytest.mark.parametrize("make", [
    lambda: _rebased(random.Random(75), group_algebra(16, F2)),
    lambda: group_algebra(9, F3),
    lambda: group_algebra(4, F4),
], ids=["F2C16_dense", "F3C9", "F4C4"])
def test_char_p_chain_space_matches_naive_kernel(make, monkeypatch):
    A = make()
    space, method = radical_module._radical_space(A)
    assert method == "char_p_chain"
    monkeypatch.setattr(radical_module, "_imat_mul", _naive_imat_mul)
    monkeypatch.setattr(radical_module, "_trace_pow", _old_trace_pow)
    assert radical_module._radical_space(A) == (space, method)
    assert space.dim == A.dim - 1


def _reference_char_p_chain_space(A):
    """The chain cut at each level q = p^i <= dim by the Gram matrix
    tr((L~x L~y)^q) / q mod p on the pairs of basis rows of the current
    space, each lift L~x the combination of the basis elements' lifts."""
    K, n = A.field, A.dim
    p = K.p
    lifts = [[list(row) for row in corpus.mult_matrix(
        A, A.basis_element(i), "left").data] for i in range(n)]

    def lift_of(v, m):
        out = [[0] * n for _ in range(n)]
        for r, c in enumerate(v):
            for i in range(n):
                for j in range(n):
                    out[i][j] += c * lifts[r][i][j]
        return [[x % m for x in row] for row in out]

    space = _trace_form_space(A)
    q = p
    while q <= n and not space.is_zero():
        m = q * p
        mats = [lift_of(v, m) for v in space.basis]
        d = len(mats)
        G = [[0] * d for _ in range(d)]
        for r in range(d):
            for s in range(r, d):
                t = radical_module._trace_pow(
                    radical_module._imat_mul(mats[r], mats[s], m), q, m)
                assert t % q == 0
                G[r][s] = G[s][r] = t // q
        space = Subspace(K, n, [space.from_coords(c) for c in
                                dense_nullspace(K, Matrix(K, G, d))])
        q = m
    return space


@pytest.mark.parametrize("make", [
    lambda: _rebased(random.Random(75), group_algebra(16, F2)),
    lambda: group_algebra(32, F2),
    lambda: group_algebra(27, F3),
    lambda: triangular_algebra(6, F2),
    lambda: group_algebra(4, F4),
], ids=["F2C16_dense", "F2C32", "F3C27", "T6F2", "F4C4"])
def test_char_p_chain_space_equals_pairwise_reference(make, monkeypatch):
    # F4C4 reaches the chain through restriction of scalars to F_2
    A = make()
    space, method = radical_module._radical_space(A)
    assert method == "char_p_chain"
    monkeypatch.setattr(radical_module, "_char_p_chain_space",
                        _reference_char_p_chain_space)
    assert radical_module._radical_space(A) == (space, method)


def test_char_p_chain_makes_one_trace_power_per_row(monkeypatch):
    calls = []
    trace_pow = radical_module._trace_pow

    def counted(x, e, m):
        calls.append(e)
        return trace_pow(x, e, m)
    monkeypatch.setattr(radical_module, "_trace_pow", counted)
    radical(group_algebra(16, F2))
    # levels q = 2, 4, 8, 16, each cutting a space of dimension <= 16
    assert len(calls) <= 64


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_radical_equals_oracle_on_rebased_algebras(seed):
    # p^dim <= 2^7 keeps the oracle's p^(2 dim) products under a second
    rng = random.Random(seed)
    K = rng.choice([F2, F3])
    A = _rebased(rng, corpus.random_algebra(rng, K, 7 if K is F2 else 4))
    assert radical(A).radical.space == radical_oracle(A).space


# -- the filtration and the warm route on random algebras --------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
# radicals whose powers need more than their first left generator
@example(seed=7)
@example(seed=12)
def test_filtration_equals_dense_products_on_random_algebras(seed):
    # J^k = span{x y : x in J^(k-1), y in J}, from dense FinAlg.mul
    # products, on natural and on rebased bases
    rng = random.Random(seed)
    K = rng.choice([F2, F3, Q])
    A = corpus.random_algebra(rng, K, 6)
    if rng.random() < 0.5:
        A = _rebased(rng, A)
    r = radical(A)
    powers = _reference_powers(A, r.radical.space)
    assert [f.space for f in r.filtration] == powers
    assert r.nilpotency_index == (len(powers) if powers[0].dim else 0)


QUIVERS = [loop_quiver(), kronecker_quiver(),
           QuiverSpec(["v"], [("x", "v", "v"), ("y", "v", "v")], []),
           QuiverSpec(["u", "v"], [("a", "u", "v"), ("b", "v", "u")], [])]


def _group_or_path_algebra(rng, K):
    if rng.random() < 0.4:
        return group_algebra(rng.randint(2, 6), K)
    return path_algebra_tower(rng.choice(QUIVERS), K,
                              rng.randint(2, 3)).levels[-1]


def _proper_ideal(rng, A):
    """The ideal closure of a random sparse element, or of none when the
    first few tried generate all of A."""
    K = A.field
    for _ in range(4):
        v = tuple(K.random(rng) if rng.random() < 0.5 else K.zero
                  for _ in range(A.dim))
        I = ideal_closure(A, [v])
        if I.dim < A.dim:
            return I
    return ideal_closure(A, [])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 9))
def test_warm_route_equals_cold_radical_on_random_surjections(seed):
    rng = random.Random(seed)
    K = rng.choice([F2, F3])
    B = _group_or_path_algebra(rng, K)
    projection = rng.random() < 0.5
    if projection:
        # B x E -> B with E = E^2 semisimple: J' = J(B) x E is not
        # nilpotent, so the cold route must run
        E = rng.choice([group_algebra(n, K) for n in (1, 2, 3, 4)
                        if n % K.p] + [matrix_algebra(2, K)])
        A = direct_product([B, E])
        h = AlgHom(A, B, identity_map(K, B.dim))
    else:
        A = B
        B, h = quotient(A, _proper_ideal(rng, A))
    assert h.verify()
    warm = radical_from_below(h, radical(B))
    assert _summary(warm) == _summary(radical(A))
    if projection:
        assert warm.method != "preimage"
