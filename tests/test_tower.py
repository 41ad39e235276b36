from fractions import Fraction

import pytest

from pca.algebra import FinAlg, group_algebra, matrix_algebra
from pca.errors import (EmptyQuiver, IncompatibleCoordinates,
                        NonComposableRelation, TooLarge)
from pca.fields import PrimeField, Rationals
from pca.limits import Limits
from pca.linalg import Subspace
from pca.malcev import (malcev_conjugator, splitting_from_complement,
                        wedderburn_splitting)
from pca.radical import radical
from pca.tower import (QuiverSpec, check_level_isomorphic, cyclic_group_tower,
                       element_from_top, kronecker_quiver, loop_quiver,
                       make_element, path_algebra_tower, power_series_tower,
                       product_tower, quiver_radical_check,
                       tower_radical_check, tower_semisimple_check,
                       unit_element)
from pca.wedderburn import central_idempotents

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)


def test_power_series_tower_shape():
    T = power_series_tower(Q, 3)
    assert [lvl.dim for lvl in T.levels] == [1, 2, 3]
    T1 = power_series_tower(F2, 1)
    assert T1.depth == 1 and T1.levels[0].dim == 1


def test_power_series_radical_dims():
    rep = tower_radical_check(power_series_tower(Q, 4))
    assert rep["radical_dims"] == [0, 1, 2, 3]
    assert rep["radical_onto_radical"]


def test_cyclic_group_tower_local_levels():
    T = cyclic_group_tower(2, F2, 2)
    rep = tower_radical_check(T)
    assert rep["level_dims"] == [2, 4]
    assert rep["radical_dims"] == [1, 3]  # codimension one at each level


def test_cyclic_group_tower_maschke():
    assert tower_semisimple_check(cyclic_group_tower(3, Q, 2))
    assert not tower_semisimple_check(cyclic_group_tower(2, F2, 2))
    T = cyclic_group_tower(5, Q, 1)
    assert T.levels[0].dim == 5


def test_path_tower_matches_power_series():
    lq = path_algebra_tower(loop_quiver(), Q, 4)
    ps = power_series_tower(Q, 4)
    assert check_level_isomorphic(ps, lq)
    assert quiver_radical_check(lq)


def test_kronecker_tower():
    T = path_algebra_tower(kronecker_quiver(), F3, 3)
    assert [lvl.dim for lvl in T.levels] == [2, 4, 4]
    rep = tower_radical_check(T)
    assert rep["radical_dims"] == [0, 2, 2]
    assert rep["nilpotency_indices"] == [0, 2, 2]
    assert quiver_radical_check(T)


def test_single_vertex_no_arrows():
    T = path_algebra_tower(QuiverSpec(["v"], []), Q, 3)
    assert [lvl.dim for lvl in T.levels] == [1, 1, 1]
    assert tower_semisimple_check(T)
    assert quiver_radical_check(T)


def test_quiver_with_relation():
    q = QuiverSpec(["v"], [("x", "v", "v")], [[("1", ("x", "x"))]])
    T = path_algebra_tower(q, Q, 4)
    assert [lvl.dim for lvl in T.levels] == [1, 2, 2, 2]
    assert quiver_radical_check(T)
    assert tower_radical_check(T)["radical_dims"] == [0, 1, 1, 1]


def test_quiver_validation_errors():
    with pytest.raises(EmptyQuiver):
        QuiverSpec([], [])
    with pytest.raises(NonComposableRelation):
        QuiverSpec(["v", "w"], [("a", "v", "w"), ("b", "v", "w")],
                   [[("1", ("a", "b"))]])
    with pytest.raises(NonComposableRelation):
        QuiverSpec(["v"], [("x", "v", "v")], [[("1", ("x",))]])


def test_product_tower():
    T = product_tower([group_algebra(1, F3), group_algebra(1, F3),
                       group_algebra(1, F3)], 3)
    assert [lvl.dim for lvl in T.levels] == [1, 2, 3]
    assert tower_semisimple_check(T)
    rep = tower_radical_check(T)
    assert rep["radical_dims"] == [0, 0, 0]


def test_product_tower_single_factor():
    T = product_tower([group_algebra(2, Q)], 1)
    assert T.depth == 1


def test_product_tower_block_count():
    T = product_tower([matrix_algebra(2, F3), group_algebra(1, F3)], 2)
    dec = central_idempotents(T.levels[1])
    assert len(dec.blocks) == 2


def test_unit_element_and_arithmetic():
    T = power_series_tower(Q, 3)
    one = unit_element(T)
    assert one.mul(one).coords == one.coords
    x = element_from_top(T, (Fraction(0), Fraction(1), Fraction(0)))
    sq = x.mul(x)
    assert sq.coords[0] == (Fraction(0),)
    assert sq.coords[1] == (Fraction(0), Fraction(0))
    assert sq.coords[2] == (Fraction(0), Fraction(0), Fraction(1))
    make_element(T, sq.coords)


def test_incompatible_coordinates():
    T = power_series_tower(Q, 2)
    with pytest.raises(IncompatibleCoordinates) as err:
        make_element(T, [(Fraction(2),), (Fraction(1), Fraction(0))])
    assert err.value.args[1] == 1


def test_splitting_compatible_along_tower():
    # pushing a top splitting down a connecting map lands, up to an exact
    # Malcev conjugation, on the directly computed splitting
    for T in (path_algebra_tower(kronecker_quiver(), F3, 3),
              power_series_tower(Q, 4),
              cyclic_group_tower(2, F2, 2)):
        for i, h in enumerate(T.maps):
            upper = wedderburn_splitting(T.levels[i + 1], seed=7)
            pushed = Subspace(T.levels[i].field, T.levels[i].dim,
                              [h.apply(v) for v in upper.image.basis])
            s_pushed = splitting_from_complement(T.levels[i], pushed)
            s_direct = wedderburn_splitting(T.levels[i], seed=0)
            omega = malcev_conjugator(s_pushed, s_direct)
            assert radical(T.levels[i]).radical.contains(omega)


def test_tower_size_limits():
    # the largest accepted towers build; one step past either bound is
    # refused before any level is built
    assert cyclic_group_tower(2, F2, 8).levels[-1].dim == Limits.dim
    assert power_series_tower(Q, Limits.depth).depth == Limits.depth
    with pytest.raises(TooLarge):
        cyclic_group_tower(2, F2, 9)
    with pytest.raises(TooLarge):
        power_series_tower(Q, Limits.depth + 1)
    big = group_algebra(Limits.dim // 2 + 1, Q)
    with pytest.raises(TooLarge):
        product_tower([big, big])
    with pytest.raises(TooLarge):
        path_algebra_tower(kronecker_quiver(), Q, Limits.depth + 1)


def test_verify_compares_built_levels_by_identity(monkeypatch):
    # a built tower's maps hold its own level objects, so Tower.verify
    # needs no structure-constant comparison
    T = cyclic_group_tower(2, F2, 4)

    def no_entries(self):
        raise AssertionError("entries() compared")

    monkeypatch.setattr(FinAlg, "entries", no_entries)
    assert T.verify()
