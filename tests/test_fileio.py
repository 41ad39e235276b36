import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
from clirun import run_cli
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
    adoc, digest = fileio.load_json(str(apath))
    assert adoc == fileio.algebra_to_doc(T2alg)
    assert digest == "sha256:" + hashlib.sha256(apath.read_bytes()).hexdigest()
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


# -- the _json loader and dumper against json -------------------------------

def _json_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False) + "\n"


def _json_load(path):
    """What ``fileio.load_json`` did through ``json.load``: the reference."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise BadSpec(f"{path}: not valid JSON ({exc})") from exc


def _load_doc(path):
    """The document ``fileio.load_json`` reads, after checking that its
    digest is the SHA-256 of the file's bytes."""
    doc, digest = fileio.load_json(path)
    with open(path, "rb") as fh:
        assert digest == "sha256:" + hashlib.sha256(fh.read()).hexdigest()
    return doc


def _outcome(load, path):
    """``repr`` of what ``load(path)`` returns, which tells -0.0 from 0 and
    1 from 1.0 and keeps key order, or the message it raises."""
    try:
        return "ok", repr(load(path))
    except BadSpec as exc:
        return "error", str(exc)


# escapes, control characters, a line separator and non-ASCII text
JSON_TEXT = st.text() | st.text(st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f \xe9€\U0001f600a'))
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(JSON_TEXT, kids, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOCS)
@example(doc={"b": [1.5, -0.0, None], "a": {"é": "\x00\"\\"}})
def test_canonical_dumps_is_json_dumps(doc):
    assert fileio.canonical_dumps(doc) == _json_dumps(doc)


# texts json.loads refuses, each with its own message
MALFORMED = {
    "truncated": '{"dim": 2, "basis": ["a", ',
    "trailing data": '{"dim": 2} {"dim": 3}',
    "missing delimiter": '{"dim" 2}',
    "trailing word": '[1, 2] x',
    "BOM": '\ufeff{"dim": 2}',
    "deep nesting": "[" * 100_000 + "]" * 100_000,
    "5000 digits": "[" + "7" * 5000 + "]",
    "control character": '["a\nb"]',
    "bad escape": '["\\x"]',
    "empty": "",
    "blank": " \n\t",
}


@pytest.mark.parametrize("text", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_load_json_refuses_malformed_text_as_json_does(tmp_path, text):
    path = str(tmp_path / "bad.alg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    want = _outcome(_json_load, path)
    assert want[0] == "error"
    assert _outcome(_load_doc, path) == want


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOCS, indent=st.sampled_from([None, 0, 2]),
       ascii_only=st.booleans(), pad=st.sampled_from(["", " ", "\n\t\r "]),
       cut=st.none() | st.integers(0, 10 ** 6),
       tail=st.sampled_from(["", "x", " 1", "]", "\ufeff"]))
@example(doc=[1, 2], indent=None, ascii_only=True, pad=" ", cut=None,
         tail=" 1")
def test_load_json_is_json_load(tmp_path_factory, doc, indent, ascii_only,
                                pad, cut, tail):
    # well-formed texts in several layouts, cut short or followed by more
    text = pad + json.dumps(doc, indent=indent, ensure_ascii=ascii_only) + pad
    if cut is not None:
        text = text[:cut % (len(text) + 1)]
    text += tail
    path = str(tmp_path_factory.mktemp("doc") / "a.alg")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert _outcome(_load_doc, path) == _outcome(_json_load, path)


@pytest.mark.parametrize("text", list(MALFORMED.values()),
                         ids=list(MALFORMED))
def test_load_json_error_in_a_fresh_process(tmp_path, text):
    # a job has not loaded json when it meets a malformed document; the
    # scanner's own error then differs by Python version (SystemError on
    # 3.10 and 3.11 for a missing delimiter), and the line printed must
    # still be json's
    (tmp_path / "bad.alg").write_text(text, encoding="utf-8")
    res = run_cli("radical", "bad.alg", cwd=tmp_path, timeout=60)
    want = _outcome(_json_load, str(tmp_path / "bad.alg"))[1]
    assert res.returncode == 1
    assert res.stderr == "pca: error: " + want.replace(
        str(tmp_path / "bad.alg"), "bad.alg") + "\n"
    assert res.stdout == ""


@settings(max_examples=200, deadline=None)
@given(data=st.lists(st.sampled_from([
    b"{", b"}", b"[", b"]", b'"', b",", b":", b"1", b"-0.5", b"null", b" ",
    b"\r", b"\n", b"\r\n", b"\t", b"\x00", b"\x1f", b"\\", b"\\n",
    b"\xef\xbb\xbf", b"\xc3\xa9", b"\xe2\x82", b"\xff", b"\x80", b"a"]),
    max_size=30).map(b"".join))
@example(data=b'["a\r\nb"]')
@example(data=b'["a\rb"]\r')
@example(data=b'\xef\xbb\xbf{"dim": 2}')
@example(data=b'{"a": "\xff"}')
def test_load_json_reads_bytes_as_text_mode_open_does(tmp_path_factory, data):
    # universal newlines inside and outside strings, a BOM, raw control
    # characters and bytes that are not UTF-8: the document or the error
    # is the one text-mode open and json.load give, and the digest is of
    # the bytes on disk
    path = str(tmp_path_factory.mktemp("doc") / "a.alg")
    with open(path, "wb") as fh:
        fh.write(data)
    assert _outcome(_load_doc, path) == _outcome(_json_load, path)


def test_load_and_dump_without_the_accelerator(tmp_path, monkeypatch):
    # an interpreter built without _json reads and writes through json
    doc = {"b": [1, 2.5], "a": "é"}
    good, bad = tmp_path / "good.alg", tmp_path / "bad.alg"
    good.write_text(json.dumps(doc), encoding="utf-8")
    bad.write_text(MALFORMED["trailing data"], encoding="utf-8")
    monkeypatch.setattr(fileio, "_scan", None)
    assert fileio.canonical_dumps(doc) == _json_dumps(doc)
    for path in (str(good), str(bad)):
        assert _outcome(_load_doc, path) == _outcome(_json_load, path)
