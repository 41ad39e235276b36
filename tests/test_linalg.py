import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from pca import linalg
from pca.errors import AmbientMismatch
from pca.fields import (PrimeField, RationalFunctionField, Rationals,
                        SimpleExtension)
from pca.linalg import (Matrix, Subspace, apply_map, compose,
                        first_difference, nullspace, rank, rref, solve,
                        solve_many, solve_maps, unit_vec, vec_add,
                        vec_is_zero)

Q = Rationals()
F5 = PrimeField(5)


def qmat(rows):
    return Matrix(Q, [[Fraction(x) for x in r] for r in rows])


def test_nullspace_example():
    M = qmat([[1, 1], [2, 2]])
    N = nullspace(M)
    assert N.data == ((Fraction(1), Fraction(-1)),)
    assert rank(M) == 1


def test_solve_identity():
    b = (Fraction(1), Fraction(2), Fraction(3))
    assert solve(qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), b) == b


def test_solve_inconsistent_is_none():
    M = qmat([[1, 1], [1, 1]])
    assert solve(M, (Fraction(0), Fraction(1))) is None


def test_rref_pivots():
    M = qmat([[0, 2, 1], [0, 4, 2]])
    R, pivots = rref(M)
    assert pivots == (1,)
    assert R.data[0] == (Fraction(0), Fraction(1), Fraction(1, 2))


@pytest.mark.parametrize("K", [Q, F5], ids=["Q", "F5"])
def test_solve_nullspace_rank_properties(K):
    rng = random.Random(7)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        M = Matrix(K, [[K.random(rng, 4) for _ in range(c)]
                       for _ in range(r)])
        x = tuple(K.random(rng, 4) for _ in range(c))
        b = corpus.matrix_apply(M, x)
        sol = solve(M, b)
        assert sol is not None
        assert corpus.matrix_apply(M, sol) == b
        N = nullspace(M)
        for row in N.data:
            assert vec_is_zero(K, corpus.matrix_apply(M, row))
        assert rank(M) + N.rows == c


def test_solve_many_matches_solve():
    M = qmat([[1, 2], [3, 4]])
    bs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    sols = solve_many(M, bs)
    assert sols == [solve(M, b) for b in bs]


def test_subspace_sum_idempotent():
    U = Subspace(Q, 3, [unit_vec(Q, 3, 0), unit_vec(Q, 3, 1)])
    assert U.sum(U) == U


def test_subspace_disjoint_intersection():
    U = Subspace(Q, 2, [unit_vec(Q, 2, 0)])
    V = Subspace(Q, 2, [unit_vec(Q, 2, 1)])
    assert U.intersect(V).dim == 0


def test_subspace_intersection_example():
    # span{e1+e2, e2} meets span{e1} in span{e1}
    U = Subspace(Q, 3, [(Fraction(1), Fraction(1), Fraction(0)),
                        (Fraction(0), Fraction(1), Fraction(0))])
    V = Subspace(Q, 3, [unit_vec(Q, 3, 0)])
    W = U.intersect(V)
    assert W == V


def test_subspace_membership_and_coords():
    U = Subspace(Q, 3, [(Fraction(1), Fraction(2), Fraction(0)),
                        (Fraction(0), Fraction(0), Fraction(1))])
    v = (Fraction(2), Fraction(4), Fraction(-3))
    assert U.contains(v)
    cs = U.coords(v)
    assert U.from_coords(cs) == v
    assert not U.contains((Fraction(0), Fraction(1), Fraction(0)))
    assert U.coords((Fraction(0), Fraction(1), Fraction(0))) is None


def test_ambient_mismatch():
    U = Subspace(Q, 2, [])
    V = Subspace(Q, 3, [])
    with pytest.raises(AmbientMismatch):
        U.sum(V)


# -- the elimination kernel against a dense Gauss-Jordan reference ----------

F3 = PrimeField(3)
F9 = SimpleExtension(F3, (1, 0, 1), name="i")     # F_3[i]/(i^2 + 1)
KERNEL_FIELDS = [Q, F5, F9]


def dense_intersection(U, V):
    """U cap V by the dense route ``Subspace.intersect`` took before
    Zassenhaus: the kernel of the stacked coefficient system
    [basis(U)^T | -basis(V)^T], mapped back through U's basis."""
    K = U.field
    if U.is_zero() or V.is_zero():
        return Subspace.zero(K, U.ambient)
    cols = [list(row) for row in U.basis]
    cols += [[K.neg(a) for a in row] for row in V.basis]
    vecs = [U.from_coords(c[:U.dim])
            for c in dense_nullspace(K, Matrix(K, zip(*cols), len(cols)))]
    return Subspace(K, U.ambient, vecs)


def test_subspace_intersection_random_property():
    rng = random.Random(3)
    meets = 0
    for K in KERNEL_FIELDS * 40:
        n = rng.randint(1, 5)
        us = [[K.random(rng) for _ in range(n)]
              for _ in range(rng.randint(0, n))]
        vs = [[K.random(rng) for _ in range(n)]
              for _ in range(rng.randint(0, n))]
        if us and rng.random() < 0.5:     # a shared vector
            vs.append(list(vec_add(K, us[0], us[-1])))
        U, V = Subspace(K, n, us), Subspace(K, n, vs)
        W = U.intersect(V)
        ref = dense_intersection(U, V)
        assert (W.basis, W.pivots) == (ref.basis, ref.pivots)
        for row in W.basis:
            assert U.contains(row) and V.contains(row)
        assert U.sum(V).dim == U.dim + V.dim - W.dim
        meets += not W.is_zero()
    assert meets >= 30


def scalar(K, n):
    """A scalar of K from a small integer code; 0 is always zero."""
    if K == Q:
        return Fraction(n, n % 3 + 1)
    if K == F5:
        return n % 5
    return (n % 3, (n // 2) % 3)


def dense_rref(K, rows, ncols):
    """Textbook Gauss-Jordan on full-width rows, pivoting in the first
    ``ncols`` columns; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows))
                  if not K.is_zero(rows[i][c])), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(inv, a) for a in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and not K.is_zero(f):
                rows[i] = [K.sub(a, K.mul(f, b))
                           for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def dense_nullspace(K, M):
    R, pivots = dense_rref(K, M.data, M.cols)
    basis = []
    for fc in (c for c in range(M.cols) if c not in pivots):
        v = [K.zero] * M.cols
        v[fc] = K.one
        for r, pc in enumerate(pivots):
            v[pc] = K.neg(R[r][fc])
        basis.append(v)
    basis, _ = dense_rref(K, basis, M.cols)
    return [tuple(v) for v in basis if not vec_is_zero(K, v)]


def dense_solve_many(K, M, bs):
    rows = [list(row) + [b[i] for b in bs] for i, row in enumerate(M.data)]
    R, pivots = dense_rref(K, rows, M.cols)
    if any(vec_is_zero(K, row[:M.cols]) and not vec_is_zero(K, row[M.cols:])
           for row in R):
        return None
    out = []
    for t in range(len(bs)):
        x = [K.zero] * M.cols
        for r, pc in enumerate(pivots):
            x[pc] = R[r][M.cols + t]
        out.append(tuple(x))
    return out


codes = st.one_of(st.just(0), st.integers(-4, 4))


@st.composite
def systems(draw):
    """(rows, ncols, xs, bs) as integer codes: a matrix with duplicated
    rows mixed in, solutions xs whose images are consistent right-hand
    sides, and free right-hand sides bs, which often are not."""
    ncols = draw(st.integers(0, 5))
    row = st.lists(codes, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=5))
    if rows:
        dups = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows += [list(rows[i]) for i in dups]
    xs = draw(st.lists(st.lists(codes, min_size=ncols, max_size=ncols),
                       max_size=2))
    bs = draw(st.lists(st.lists(codes, min_size=len(rows),
                                max_size=len(rows)), max_size=2))
    return rows, ncols, xs, bs


EDGE_CASES = [
    ([], 0, [], []),                                   # no rows, no columns
    ([], 3, [[1, 2, 3]], [[]]),                        # no rows
    ([[], [], []], 0, [[]], [[0, 0, 0], [0, 1, 0]]),   # no columns
    ([[0, 0], [0, 0]], 2, [[1, 1]], [[0, 0], [1, 0]]),  # zero matrix
    ([[1, 2, 0], [1, 2, 0], [2, 4, 0]], 3, [[1, 0, 2]], [[1, 1, 2]]),
    ([[0, 3, 1, 0], [0, 3, 1, 0], [1, 0, 0, 2]], 4,
     [[1, 1, 1, 1], [0, 2, 0, 1]], [[1, 0, 0], [0, 0, 1]]),
]


def kernel_case(test):
    for case in EDGE_CASES:
        test = example(case=case)(test)
    return pytest.mark.parametrize("K", KERNEL_FIELDS,
                                   ids=["Q", "F5", "F9"])(
        settings(max_examples=60, deadline=None)(given(case=systems())(test)))


def build(K, case):
    rows, ncols, xs, bs = case
    M = Matrix(K, [[scalar(K, n) for n in r] for r in rows], ncols)
    xs = [tuple(scalar(K, n) for n in x) for x in xs]
    bs = [corpus.matrix_apply(M, x) for x in xs] + [
        tuple(scalar(K, n) for n in b) for b in bs]
    return M, bs


@kernel_case
def test_rref_matches_dense_reference(K, case):
    M, _ = build(K, case)
    R, pivots = rref(M)
    ref, ref_pivots = dense_rref(K, M.data, M.cols)
    assert pivots == tuple(ref_pivots)
    assert R.data == tuple(tuple(r) for r in ref)
    assert rank(M) == len(ref_pivots)


@kernel_case
def test_nullspace_matches_dense_reference(K, case):
    M, _ = build(K, case)
    N = nullspace(M)
    assert N.data == tuple(dense_nullspace(K, M))
    assert N.rows == M.cols - rank(M)
    for v in N.data:
        assert vec_is_zero(K, corpus.matrix_apply(M, v))


@kernel_case
def test_solve_many_matches_dense_reference(K, case):
    M, bs = build(K, case)
    sols = solve_many(M, bs)
    assert sols == dense_solve_many(K, M, bs)
    if sols is not None:
        assert [corpus.matrix_apply(M, x) for x in sols] == bs
        assert sols == [solve(M, b) for b in bs]
    else:
        assert any(solve(M, b) is None for b in bs)


@kernel_case
def test_maps_match_dense_reference(K, case):
    """``Subspace.kernel``, ``solve_maps`` and ``apply_map`` on M given as
    two maps, its first rows and the rest, whose columns list each entry
    twice, as a - 1 and 1, so ``linalg`` must add them."""
    M, bs = build(K, case)
    parts = ((0, M.rows // 2), (M.rows // 2, M.rows))
    maps = [{j: tuple(e for i in range(lo, hi)
                      if not K.is_zero(M.data[i][j])
                      for e in ((i - lo, K.sub(M.data[i][j], K.one)),
                                (i - lo, K.one)))
             for j in range(M.cols)} for lo, hi in parts]
    assert (Subspace.kernel(K, M.cols, maps).basis
            == tuple(dense_nullspace(K, M)))
    for b in bs:
        x = solve_maps(K, M.cols, maps, [b[lo:hi] for lo, hi in parts])
        assert [x] == (dense_solve_many(K, M, [b]) or [None])
        if x is not None:
            assert sum((apply_map(K, f, x, hi - lo)
                        for f, (lo, hi) in zip(maps, parts)), ()) == b


@kernel_case
def test_subspace_matches_dense_reference(K, case):
    M, _ = build(K, case)
    U = Subspace(K, M.cols, M.data)
    ref, ref_pivots = dense_rref(K, M.data, M.cols)
    assert U.basis == tuple(tuple(r) for r in ref[:len(ref_pivots)])
    assert U.pivots == tuple(ref_pivots)
    assert all(U.contains(v) for v in M.data)


def test_kernel_stores_no_zero_products_over_zero_divisors():
    # over F_3(t), x^2 - 1 is not checked for irreducibility, so
    # (x - 1)(x + 1) = 0 and a product of nonzero entries can vanish
    B = RationalFunctionField(3)
    K = SimpleExtension(B, (B.from_int(-1), B.zero, B.one))
    one, zero = K.one, K.zero
    xp1 = (B.one, B.one)
    xm1 = (B.from_int(-1), B.one)
    M = Matrix(K, [[one, xp1], [xm1, zero]])
    R, pivots = rref(M)
    assert pivots == (0,)
    assert R.data == ((one, xp1), (zero, zero))


# -- Subspace against a dense reference --------------------------------------

def dense_span(K, vecs, n):
    """(basis, pivots) of the span of vecs, by the dense reference."""
    rows, pivots = dense_rref(K, vecs, n)
    return tuple(tuple(r) for r in rows[:len(pivots)]), tuple(pivots)


def dense_reduce(K, basis, pivots, v):
    """Residue of v against an RREF basis, one dense row at a time."""
    v = list(v)
    for row, pc in zip(basis, pivots):
        c = v[pc]
        if not K.is_zero(c):
            v = [K.sub(a, K.mul(c, b)) for a, b in zip(v, row)]
    return tuple(v)


def dense_combination(K, basis, cs, n):
    out = [K.zero] * n
    for c, row in zip(cs, basis):
        out = [K.add(a, K.mul(c, b)) for a, b in zip(out, row)]
    return tuple(out)


@st.composite
def subspace_cases(draw):
    """(n, rows, more, probes, cs) as integer codes: a spanning list, a
    list to extend it by, probe vectors and coordinates."""
    n = draw(st.integers(0, 5))
    vec = st.lists(codes, min_size=n, max_size=n)
    rows = draw(st.lists(vec, max_size=5))
    more = draw(st.lists(vec, max_size=4))
    probes = draw(st.lists(vec, max_size=3))
    cs = draw(st.lists(codes, min_size=n, max_size=n))
    return n, rows, more, probes, cs


@pytest.mark.parametrize("K", KERNEL_FIELDS, ids=["Q", "F5", "F9"])
@settings(max_examples=80, deadline=None)
@given(case=subspace_cases())
@example(case=(3, [[1, 2, 0], [0, 0, 1]], [[0, 1, 0]], [[2, 4, 1]],
               [1, 1, 0]))
@example(case=(2, [], [[1, 1], [2, 2]], [[0, 3]], [0, 0]))
def test_subspace_operations_match_dense_reference(K, case):
    n, rows, more, probes, cs = case
    vecs = [tuple(scalar(K, x) for x in r) for r in rows]
    extra = [tuple(scalar(K, x) for x in r) for r in more]
    U = Subspace(K, n, vecs)
    basis, pivots = dense_span(K, vecs, n)
    assert (U.basis, U.pivots) == (basis, pivots)
    # extend and sum first, so the checks below see U's rows afterwards
    both = dense_span(K, vecs + extra, n)
    grown = U.extend(extra)
    assert (grown.basis, grown.pivots) == both
    total = U.sum(Subspace(K, n, extra))
    assert (total.basis, total.pivots) == both
    assert (U.basis, U.pivots) == (basis, pivots)
    cs = tuple(scalar(K, c) for c in cs[:len(basis)])
    member = dense_combination(K, basis, cs, n)
    assert U.from_coords(cs) == member
    outside = [tuple(scalar(K, x) for x in p) for p in probes]
    vs = outside + extra + [member] + [vec_add(K, member, p)
                                       for p in outside]
    # the same vectors as the columns of one map, each entry split in two
    # halves that the map format adds up (no kernel field has char 2)
    half = K.inv(K.from_int(2))
    cols = {j: tuple((k, K.mul(half, c)) for k, c in enumerate(v)) * 2
            for j, v in enumerate(vs)}
    residues = U.residue(cols)
    for j, v in enumerate(vs):
        residue = dense_reduce(K, basis, pivots, v)
        assert dict(residues[j]) == {k: c for k, c in enumerate(residue)
                                     if not K.is_zero(c)}
        inside = vec_is_zero(K, residue)
        assert U.contains(v) == inside
        assert U.coords(v) == (tuple(v[pc] for pc in pivots) if inside
                               else None)
    assert U.coords(member) == cs
    # the coordinates of the whole map: None once a column leaves U
    coords = U.coordinates(cols)
    if not all(U.contains(v) for v in vs):
        assert coords is None
    else:
        assert {j: dict(col) for j, col in coords.items()} == {
            j: {t: c for t, c in enumerate(U.coords(v)) if not K.is_zero(c)}
            for j, v in enumerate(vs)}


# -- closure under linear maps -----------------------------------------------

def dense_apply(K, M, v):
    """M v for a list of rows M, one dense row at a time."""
    out = []
    for row in M:
        acc = K.zero
        for a, x in zip(row, v):
            acc = K.add(acc, K.mul(a, x))
        out.append(acc)
    return tuple(out)


def sparse_columns(K, M):
    """The map format of ``Subspace``: column j of the square matrix M as
    its (k, nonzero scalar) pairs, with no entry for a zero column."""
    cols = {}
    for j in range(len(M)):
        col = tuple((k, row[j]) for k, row in enumerate(M)
                    if not K.is_zero(row[j]))
        if col:
            cols[j] = col
    return cols


def dense_closure(K, vecs, mats, n):
    """(basis, pivots) of the smallest span holding vecs and closed under
    every matrix in mats: add every image of the whole basis, again and
    again, until the span stops growing."""
    span = dense_span(K, vecs, n)
    while True:
        images = [dense_apply(K, M, b) for b in span[0] for M in mats]
        bigger = dense_span(K, list(span[0]) + images, n)
        if len(bigger[1]) == len(span[1]):
            return span
        span = bigger


@st.composite
def closure_cases(draw):
    """(n, mats, start, more) as integer codes: up to two n x n matrices,
    the vectors whose closure is the starting space, and the vectors to
    extend it by."""
    n = draw(st.integers(0, 5))
    vec = st.lists(codes, min_size=n, max_size=n)
    mats = draw(st.lists(st.lists(vec, min_size=n, max_size=n), max_size=2))
    start = draw(st.lists(vec, max_size=2))
    more = draw(st.lists(vec, max_size=3))
    return n, mats, start, more


SHIFT = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


@pytest.mark.parametrize("K", KERNEL_FIELDS, ids=["Q", "F5", "F9"])
@settings(max_examples=80, deadline=None)
@given(case=closure_cases())
# one vector under a shift: each round of images adds one row
@example(case=(4, [SHIFT], [], [[1, 0, 0, 0]]))
# two added rows in one batch, only the first of which has a new image
@example(case=(3, [[[0, 0, 0], [0, 0, 0], [1, 0, 0]]], [],
               [[1, 0, 0], [0, 1, 0]]))
# a closed starting space that the images of the new rows leave
@example(case=(4, [SHIFT], [[0, 0, 1, 0]], [[1, 0, 0, 0]]))
def test_extend_under_maps_matches_fixpoint_reference(K, case):
    n, mats, start, more = case
    mats = [[[scalar(K, x) for x in row] for row in M] for M in mats]
    start = [tuple(scalar(K, x) for x in v) for v in start]
    more = [tuple(scalar(K, x) for x in v) for v in more]
    maps = [sparse_columns(K, M) for M in mats]
    assert [Matrix.from_map(K, n, n, f).data for f in maps] == \
        [tuple(map(tuple, M)) for M in mats]
    calls = [0] * len(maps)
    apply_map = linalg._apply_map

    def counted(field, cols, row):
        # extend hands each map a row as a {index: nonzero scalar} dict
        calls[[id(f) for f in maps].index(id(cols))] += 1
        assert not any(K.is_zero(x) for x in row.values())
        return apply_map(field, cols, row)
    U = Subspace(K, n, dense_closure(K, start, mats, n)[0])
    with mock.patch.object(linalg, "_apply_map", counted):
        grown = U.extend(more, maps)
    assert (grown.basis, grown.pivots) == dense_closure(K, start + more,
                                                        mats, n)
    # each map saw each added row once, and nothing else
    assert calls == [grown.dim - U.dim] * len(maps)
    # without maps, extend is the plain span
    assert U.extend(more, []) == U.extend(more)


@pytest.mark.parametrize("K", KERNEL_FIELDS, ids=["Q", "F5", "F9"])
@settings(max_examples=80, deadline=None)
@given(case=closure_cases())
# the image of the last pivot row is the only one outside the others'
@example(case=(3, [[[0, 0, 0], [0, 0, 0], [0, 0, 1]]], [[1, 0, 0]],
               [[0, 0, 1]]))
# a shift sends one basis row to zero and the other out of the space
@example(case=(4, [SHIFT], [[1, 0, 0, 0], [0, 0, 0, 1]], []))
def test_image_matches_dense_reference(K, case):
    n, mats, start, more = case
    mats = [[[scalar(K, x) for x in row] for row in M] for M in mats]
    vecs = [tuple(scalar(K, x) for x in v) for v in start + more]
    U = Subspace(K, n, vecs)
    image = U.image([sparse_columns(K, M) for M in mats])
    # the span of M b over every basis row b and every map M
    ref = dense_span(K, [dense_apply(K, M, b) for b in U.basis
                         for M in mats], n)
    assert (image.basis, image.pivots) == ref
    assert (U.basis, U.pivots) == dense_span(K, vecs, n)


# -- composing and comparing maps ---------------------------------------------

def twice(K, M):
    """The sparse columns of the square matrix M, each nonzero entry listed
    twice, as a - 1 and 1, which ``linalg`` must add up."""
    return {j: tuple(e for k, row in enumerate(M) if not K.is_zero(row[j])
                     for e in ((k, K.sub(row[j], K.one)), (k, K.one)))
            for j in range(len(M))}


def test_a_repeated_index_composes_as_the_sum():
    # column 0 of f lists index 0 twice, so f e_0 = (1 + 2) e_0, and
    # f g e_1 = 2 f e_0 = 6 e_0, which is 1 e_0 over F_5
    f = {0: ((0, 1), (0, 2))}
    g = {0: ((0, 1),), 1: ((0, 2),)}
    for K, six in ((Q, 6), (F5, 1)):
        fg = compose(K, f, g)
        assert apply_map(K, fg, (0, 1), 1) == (six,)
        assert first_difference(K, fg, {0: ((0, 3),), 1: ((0, six),)}) \
            is None
        assert first_difference(K, fg, {0: ((0, 3),)}) == 1
        assert first_difference(K, fg, {1: ((0, six),)}) == 0
        assert first_difference(K, {}, {}) is None


def test_from_map_sums_a_repeated_index_and_takes_its_shape():
    # column 0 lists row 0 twice: its entry is 1 + 2; over F_5 the two
    # entries of column 1, 3 + 4, add up to 2
    assert Matrix.from_map(Q, 1, 1, {0: ((0, 1), (0, 2))}).data == ((3,),)
    f = {0: ((1, 1),), 1: ((0, 3), (0, 4)), 2: ((1, 2),)}
    for K, seven in ((Q, 7), (F5, 2)):
        M = Matrix.from_map(K, 2, 3, f)
        assert (M.rows, M.cols) == (2, 3)
        assert M.data == ((0, seven, 0), (1, 0, 2))
        assert first_difference(K, M.to_map(), f) is None
    assert Matrix.from_map(Q, 3, 2, {}).data == ((0, 0),) * 3


@pytest.mark.parametrize("K", KERNEL_FIELDS, ids=["Q", "F5", "F9"])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 4), data=st.data())
def test_compose_and_first_difference_match_dense_reference(K, n, data):
    """compose(M, N) applies as the dense product M N, and
    first_difference of it and P, the product with a few entries
    replaced, is the least column where the dense matrices differ."""
    square = st.lists(st.lists(codes, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    M, N = ([[scalar(K, x) for x in row] for row in data.draw(square)]
            for _ in range(2))
    cols = [dense_apply(K, M, [row[j] for row in N]) for j in range(n)]
    P = [list(row) for row in zip(*cols)]
    if n:
        place = st.integers(0, n - 1)
        for r, c, x in data.draw(st.lists(st.tuples(place, place, codes),
                                          max_size=2)):
            P[r][c] = scalar(K, x)
    MN = compose(K, twice(K, M), twice(K, N))
    assert [apply_map(K, MN, unit_vec(K, n, j), n) for j in range(n)] == cols
    expected = next((j for j in range(n)
                     if cols[j] != tuple(row[j] for row in P)), None)
    assert first_difference(K, MN, twice(K, P)) == expected
    assert first_difference(K, twice(K, P), MN) == expected


# -- integer Q rows and the column index, carried across calls ---------------

def mixed(K, n, d):
    """A scalar from the codes n and d: n/d over Q, where rows then mix
    denominators, and ``scalar(K, n)`` over the other fields."""
    return Fraction(n, d) if K == Q else scalar(K, n)


@st.composite
def batch_cases(draw):
    """(n, batches): two or three lists of vectors as (numerator,
    denominator) codes, fed to one space a batch at a time."""
    n = draw(st.integers(1, 6))
    entry = st.tuples(codes, st.integers(1, 6))
    vec = st.lists(entry, min_size=n, max_size=n)
    return n, draw(st.lists(st.lists(vec, max_size=4), min_size=2,
                            max_size=3))


def _codes(rows):
    return [[(n, 1) if isinstance(n, int) else n for n in r] for r in rows]


@pytest.mark.parametrize("K", KERNEL_FIELDS, ids=["Q", "F5", "F9"])
@settings(max_examples=80, deadline=None)
@given(case=batch_cases())
# the second batch's pivots are cleared from rows stored by the first,
# whose entries 1/2 and 1/3 are not multiples of the new pivot 3/4
@example(case=(3, [_codes([[1, (1, 2), (1, 3)]]),
                   _codes([[0, (3, 4), 1], [0, 0, (2, 3)]])]))
# a cleared row gains an entry in a column that becomes a pivot later
@example(case=(4, [_codes([[1, 0, 0, (1, 2)], [0, 0, 1, 0]]),
                   _codes([[0, (2, 3), 0, 1]]),
                   _codes([[0, 0, 0, (5, 6)], [1, 1, 1, 1]])]))
# negative leads over Q, cleared from a row whose entries they divide
@example(case=(3, [_codes([[1, -2, 4]]), _codes([[0, -4, 2], [0, 0, -3]])]))
def test_kernel_across_batches_matches_dense_reference(K, case):
    """``Subspace.extend`` batch by batch against the dense RREF of every
    vector so far: the stored pivot rows enter the kernel's form and leave
    it again on each call, and must come out monic and canonical.  Inside
    the kernel, every Q pivot row a step uses is an integer vector with a
    positive pivot."""
    n, batches = case
    step = linalg._step

    def checked(R, row, c, prow):
        if R is linalg._Integers:
            assert all(type(a) is int for a in prow.values())
            assert prow[c] > 0
        return step(R, row, c, prow)
    U, seen = Subspace(K, n, []), []
    with mock.patch.object(linalg, "_step", checked):
        for batch in batches:
            vecs = [tuple(mixed(K, a, d) for a, d in v) for v in batch]
            U = U.extend(vecs)
            seen += vecs
            assert (U.basis, U.pivots) == dense_span(K, seen, n)
            for pc, row in U._rows.items():
                assert row[pc] == K.one
                if K == Q:
                    assert all(type(a) is int or a.denominator > 1
                               for a in row.values())
