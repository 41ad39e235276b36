import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from pca import fileio
from pca.algebra import (base_change, group_algebra, matrix_algebra,
                         triangular_algebra)
from pca.errors import BadSpec, TooLarge
from pca.fields import (PrimeField, RationalFunctionField, Rationals,
                        SimpleExtension)
from pca.limits import Limits
from pca.malcev import wedderburn_splitting
from pca.poly import Poly
from pca.tower import (QuiverSpec, kronecker_quiver, path_algebra_tower,
                       power_series_tower)

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F2T = RationalFunctionField(2)


def all_fields():
    yield Q
    yield F3
    yield F2T
    yield SimpleExtension(Q, Poly.from_ints(Q, [1, 1, 1]).coeffs, name="w")
    yield SimpleExtension(F2T, (F2T.neg(F2T.t), F2T.zero, F2T.one))


# any bytes, and bytes repeated past 64 KiB, so the digest spans many blocks
DIGEST_INPUTS = st.binary() | st.binary(min_size=1, max_size=64).map(
    lambda b: b * (2 ** 16 // len(b) + 1))


@settings(max_examples=60, deadline=None)
@given(data=DIGEST_INPUTS)
@example(data=b"")
def test_digest_is_hashlib_sha256(data):
    assert (fileio.digest_bytes(data)
            == "sha256:" + hashlib.sha256(data).hexdigest())


@pytest.mark.parametrize("K", list(all_fields()),
                         ids=["Q", "F3", "F2(t)", "Q(w)", "F2(t)(a)"])
def test_field_doc_round_trip(K):
    doc = fileio.field_to_doc(K)
    assert fileio.field_from_doc(doc) == K
    assert fileio.field_from_doc(json.loads(fileio.canonical_dumps(doc))) == K


def test_parse_field_text():
    assert fileio.parse_field_text("Q") == Q
    assert fileio.parse_field_text("F3") == F3
    assert fileio.parse_field_text("F2(t)") == F2T
    with pytest.raises(BadSpec):
        fileio.parse_field_text("R")


def test_algebra_round_trip_is_identity():
    rng = random.Random(40)
    algebras = [triangular_algebra(2, Q), matrix_algebra(2, F3),
                group_algebra(4, F2)]
    E = SimpleExtension(Q, Poly.from_ints(Q, [1, 1, 1]).coeffs)
    algebras.append(base_change(group_algebra(3, Q), E))
    for _ in range(6):
        algebras.append(corpus.random_algebra(rng, rng.choice([Q, F2, F3]), 5))
    for A in algebras:
        doc = fileio.algebra_to_doc(A)
        B = fileio.algebra_from_doc(doc)
        assert B == A
        assert fileio.canonical_dumps(fileio.algebra_to_doc(B)) == \
            fileio.canonical_dumps(doc)


def test_algebra_doc_rejects_bad_input():
    with pytest.raises(BadSpec):
        fileio.algebra_from_doc({"field": {"kind": "rationals"}, "dim": 2,
                                 "basis": ["a"], "unit": ["1"], "mult": []})
    with pytest.raises(BadSpec):
        fileio.algebra_from_doc({"field": {"kind": "nosuch"}, "dim": 1,
                                 "basis": ["a"], "unit": ["1"], "mult": []})


def test_quiver_round_trip():
    q = QuiverSpec(["v", "w"], [("a", "v", "w"), ("b", "w", "v")],
                   [[("1", ("a", "b")), ("2", ("a", "b"))]])
    doc = fileio.quiver_to_doc(q)
    q2 = fileio.quiver_from_doc(doc)
    assert q2.vertices == q.vertices
    assert q2.arrows == q.arrows
    assert fileio.canonical_dumps(fileio.quiver_to_doc(q2)) == \
        fileio.canonical_dumps(doc)


def test_tower_round_trip():
    for T in (power_series_tower(Q, 3),
              path_algebra_tower(kronecker_quiver(), F3, 3)):
        doc = fileio.tower_to_doc(T)
        T2 = fileio.tower_from_doc(doc)
        assert T2.kind == T.kind
        assert [l.dim for l in T2.levels] == [l.dim for l in T.levels]
        assert all(a == b for a, b in zip(T2.levels, T.levels))
        assert fileio.canonical_dumps(fileio.tower_to_doc(T2)) == \
            fileio.canonical_dumps(doc)


def test_tower_doc_depth_limit():
    point = fileio.algebra_to_doc(power_series_tower(Q, 1).levels[0])

    def doc(n):
        return {"levels": [point] * n, "maps": [[["1"]]] * (n - 1)}

    assert fileio.tower_from_doc(doc(Limits.depth)).depth == Limits.depth
    with pytest.raises(TooLarge):
        fileio.tower_from_doc(doc(Limits.depth + 1))


def test_splitting_doc_round_trip(tmp_path):
    T2alg = triangular_algebra(2, Q)
    apath = tmp_path / "t2.alg"
    fileio.save_canonical(str(apath), fileio.algebra_to_doc(T2alg))
    digest = fileio.digest_file(str(apath))
    s = wedderburn_splitting(T2alg, seed=1)
    doc = fileio.splitting_to_doc(s.section, digest)
    M = fileio.splitting_matrix_from_doc(doc, T2alg, digest)
    assert M == corpus.hom_matrix(s.section)
    with pytest.raises(BadSpec):
        fileio.splitting_matrix_from_doc(doc, T2alg, "sha256:other")


def test_vector_text_round_trip():
    E = SimpleExtension(F2T, (F2T.neg(F2T.t), F2T.zero, F2T.one))
    rng = random.Random(50)
    for K in (Q, F3, F2T, E):
        v = tuple(K.random(rng) for _ in range(4))
        texts = fileio.vector_to_texts(K, v)
        assert fileio.vector_from_texts(K, texts) == v
        joined = ",".join(texts)
        assert fileio.parse_vector_text(K, joined) == v


def test_canonical_dumps_sorted_and_stable():
    doc = {"b": 1, "a": [3, 2, {"z": True, "y": None}]}
    s1 = fileio.canonical_dumps(doc)
    s2 = fileio.canonical_dumps(json.loads(s1))
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"')
