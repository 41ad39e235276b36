"""Canonical JSON documents for algebras, quivers, towers and splittings.

Serialization is deterministic: sorted keys, compact separators, canonical
scalar text, sorted structure-constant entries.  parse -> serialize ->
parse is the identity on every well-formed document.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import FinAlg, hom_check, make_algebra
from .errors import BadSpec
from .fields import (Field, PrimeField, RationalFunctionField, Rationals,
                     SimpleExtension, split_top_level)
from .linalg import Matrix
from .tower import QuiverSpec, Tower


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False) + "\n"


def digest_bytes(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise BadSpec(f"{path}: not valid JSON ({exc})") from exc


def save_canonical(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))


# -- fields ---------------------------------------------------------------

def field_to_doc(K: Field) -> dict:
    if isinstance(K, Rationals):
        return {"kind": "rationals"}
    if isinstance(K, PrimeField):
        return {"kind": "primefield", "p": K.p}
    if isinstance(K, RationalFunctionField):
        return {"kind": "ratfunc", "p": K.p}
    if isinstance(K, SimpleExtension):
        return {"kind": "extension", "base": field_to_doc(K.base),
                "minpoly": [K.base.text(c) for c in K.minpoly],
                "name": K.name}
    raise BadSpec(f"unknown field {K!r}")


def field_from_doc(doc: dict) -> Field:
    kind = doc.get("kind")
    if kind == "rationals":
        return Rationals()
    if kind == "primefield":
        return PrimeField(doc["p"])
    if kind == "ratfunc":
        return RationalFunctionField(doc["p"])
    if kind == "extension":
        base = field_from_doc(doc["base"])
        minpoly = [base.parse(t) for t in doc["minpoly"]]
        return SimpleExtension(base, minpoly, doc.get("name", "x"))
    raise BadSpec(f"unknown field kind {kind!r}")


def parse_field_text(text: str) -> Field:
    """Short command-line field descriptors: Q, F<p>, F<p>(t)."""
    text = text.strip()
    if text in ("Q", "QQ"):
        return Rationals()
    if text.startswith("F"):
        rest = text[1:]
        if rest.endswith("(t)"):
            return RationalFunctionField(int(rest[:-3]))
        return PrimeField(int(rest))
    raise BadSpec(f"cannot parse field descriptor {text!r}")


# -- vectors and matrices ---------------------------------------------------

def vector_to_texts(K: Field, v):
    return [K.text(c) for c in v]


def vector_from_texts(K: Field, texts):
    return tuple(K.parse(t) for t in texts)


def parse_vector_text(K: Field, text: str):
    """A whole vector in one string, comma separated at top level."""
    return vector_from_texts(K, split_top_level(text.strip()))


def matrix_to_doc(K: Field, M: Matrix):
    return [vector_to_texts(K, row) for row in M.data]


def matrix_from_doc(K: Field, doc, cols: int) -> Matrix:
    return Matrix(K, [vector_from_texts(K, row) for row in doc], cols)


# -- algebras ----------------------------------------------------------------

def algebra_to_doc(A: FinAlg) -> dict:
    return {
        "field": field_to_doc(A.field),
        "dim": A.dim,
        "basis": list(A.labels),
        "unit": vector_to_texts(A.field, A.unit),
        "mult": [[i, j, k, A.field.text(c)] for i, j, k, c in A.entries()],
    }


def algebra_from_doc(doc: dict) -> FinAlg:
    try:
        K = field_from_doc(doc["field"])
        dim = doc["dim"]
        labels = doc["basis"]
        if len(labels) != dim:
            raise BadSpec("basis label count differs from dim")
        entries = [(i, j, k, K.parse(t)) for i, j, k, t in doc["mult"]]
        unit = vector_from_texts(K, doc["unit"]) if "unit" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise BadSpec(f"malformed algebra document: {exc}") from exc
    return make_algebra(K, labels, entries, unit)


def load_algebra(path: str) -> FinAlg:
    return algebra_from_doc(load_json(path))


# -- quivers ------------------------------------------------------------------

def quiver_to_doc(q: QuiverSpec) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": n, "src": s, "tgt": t} for n, s, t in q.arrows],
        "relations": [{"terms": [{"coeff": str(c), "path": list(p)}
                                 for c, p in rel]}
                      for rel in q.relations],
    }


def quiver_from_doc(doc: dict) -> QuiverSpec:
    try:
        vertices = doc["vertices"]
        arrows = [(a["name"], a["src"], a["tgt"]) for a in doc["arrows"]]
        relations = [[(term["coeff"], tuple(term["path"]))
                      for term in rel["terms"]]
                     for rel in doc.get("relations", [])]
    except (KeyError, TypeError) as exc:
        raise BadSpec(f"malformed quiver document: {exc}") from exc
    return QuiverSpec(vertices, arrows, relations)


def load_quiver(path: str) -> QuiverSpec:
    return quiver_from_doc(load_json(path))


# -- towers ---------------------------------------------------------------

def tower_to_doc(T: Tower) -> dict:
    K = T.levels[0].field
    return {
        "kind": T.kind,
        "meta": T.meta,
        "levels": [algebra_to_doc(lvl) for lvl in T.levels],
        "maps": [matrix_to_doc(K, h.matrix) for h in T.maps],
    }


def tower_from_doc(doc: dict) -> Tower:
    try:
        levels = [algebra_from_doc(d) for d in doc["levels"]]
        maps = []
        for i, mdoc in enumerate(doc["maps"]):
            M = matrix_from_doc(levels[i].field, mdoc, levels[i + 1].dim)
            maps.append(hom_check(M, levels[i + 1], levels[i]))
        kind = doc.get("kind", "custom")
        meta = doc.get("meta", {})
    except (KeyError, TypeError, IndexError) as exc:
        raise BadSpec(f"malformed tower document: {exc}") from exc
    return Tower(levels, maps, kind, meta)


def load_tower(path: str) -> Tower:
    return tower_from_doc(load_json(path))


# -- splittings ------------------------------------------------------------

def splitting_to_doc(K: Field, section: Matrix, algebra_digest: str) -> dict:
    return {
        "kind": "splitting",
        "algebra_digest": algebra_digest,
        "section": matrix_to_doc(K, section),
    }


def splitting_matrix_from_doc(doc: dict, A: FinAlg,
                              algebra_digest: str | None = None) -> Matrix:
    try:
        if doc.get("kind") != "splitting":
            raise BadSpec("not a splitting document")
        if algebra_digest is not None and "algebra_digest" in doc \
                and doc["algebra_digest"] != algebra_digest:
            raise BadSpec(
                "splitting was computed for a different algebra file")
        rows = doc["section"]
        if len(rows) != A.dim:
            raise BadSpec("section matrix has wrong height")
        return matrix_from_doc(A.field, rows, len(rows[0]) if rows else 0)
    except (AttributeError, KeyError, TypeError) as exc:
        raise BadSpec(f"malformed splitting document: {exc}") from exc
