"""Canonical JSON documents for algebras, quivers, towers and splittings.

Serialization is deterministic: sorted keys, compact separators, canonical
scalar text, sorted structure-constant entries.  parse -> serialize ->
parse is the identity on every well-formed document.

Documents are read and written by the interpreter's C accelerator
``_json``: its scanner and encoder are the ones ``json.loads`` and
``json.dumps`` call, so the text is the same, but importing ``json``
compiles six regular expressions, about 1.4 ms of every job.  ``json`` is
imported only to raise its exact error for text the scanner rejects, and
on an interpreter built without ``_json``.
"""

from __future__ import annotations

import sys

from .algebra import FinAlg, hom_check, make_algebra
from .errors import BadSpec
from .fields import (Field, PrimeField, RationalFunctionField, Rationals,
                     SimpleExtension, split_top_level)
from .limits import check_depth, check_dim
from .linalg import Matrix

# The interpreter's own SHA-256, not hashlib's: importing hashlib loads
# OpenSSL (_hashlib) and _blake2, which costs ten times the built-in module
# at every start-up.  The module is chosen by version, since a failed import
# walks sys.path; hashlib serves only builds that leave the module out.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256


class _Decoding:
    """The settings of ``json.loads``'s default decoder, as its scanner
    reads them."""
    strict = True
    object_hook = object_pairs_hook = None
    parse_float, parse_int = float, int
    parse_constant = {"NaN": float("nan"), "Infinity": float("inf"),
                      "-Infinity": float("-inf")}.__getitem__


def _unserializable(obj):
    """``json.JSONEncoder.default``: every object it is handed is refused."""
    raise TypeError(f"Object of type {obj.__class__.__name__} "
                    f"is not JSON serializable")


_SPACE = " \t\n\r"     # json.decoder.WHITESPACE

try:
    from _json import encode_basestring, make_encoder, make_scanner
    _scan = make_scanner(_Decoding())
except ImportError:     # an interpreter built without the accelerator
    _scan = None


def canonical_dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":"),
    ensure_ascii=False)`` and a newline."""
    if _scan is None:
        import json
        return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False) + "\n"
    # a fresh encoder each call, as json.dumps makes: its circular-reference
    # markers are not cleared when an encoding fails
    encode = make_encoder({}, _unserializable, encode_basestring, None,
                          ":", ",", True, False, True)
    return "".join(encode(doc, 0)) + "\n"


def _loads(text: str):
    """``json.loads(text)``.  Text the scanner rejects, or whose value is
    followed by more than whitespace, is handed to ``json.loads`` for its
    exact error: the scanner's own differs by version (``SystemError`` on
    3.10 and 3.11 while ``json.decoder`` is not loaded)."""
    if _scan is not None:
        try:
            doc, end = _scan(text, len(text) - len(text.lstrip(_SPACE)))
        except (ValueError, RecursionError, StopIteration, SystemError):
            pass
        else:
            if not text[end:].lstrip(_SPACE):
                return doc
    import json
    return json.loads(text)


def digest_bytes(data: bytes) -> str:
    """``"sha256:"`` and the hex SHA-256 of ``data``, the same digest as
    ``hashlib.sha256``."""
    return "sha256:" + sha256(data).hexdigest()


def digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return digest_bytes(fh.read())


def load_json(path: str) -> dict:
    """The document in ``path``; any text ``json`` cannot read is BadSpec."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _loads(fh.read())
    except (ValueError, RecursionError) as exc:
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
    if not isinstance(doc, dict):
        raise BadSpec(f"field descriptor {doc!r} is not an object")
    kind = doc.get("kind")
    if kind == "rationals":
        return Rationals()
    if kind == "primefield":
        return PrimeField(doc["p"])
    if kind == "ratfunc":
        return RationalFunctionField(doc["p"])
    if kind == "extension":
        base = field_from_doc(doc["base"])
        minpoly = vector_from_texts(base, doc["minpoly"])
        return SimpleExtension(base, minpoly, doc.get("name", "x"))
    raise BadSpec(f"unknown field kind {kind!r}")


def parse_field_text(text: str) -> Field:
    """Short command-line field descriptors: Q, F<p>, F<p>(t)."""
    text = text.strip()
    if text in ("Q", "QQ"):
        return Rationals()
    if text.startswith("F"):
        rest = text[1:]
        ratfunc = rest.endswith("(t)")
        try:
            p = int(rest[:-3] if ratfunc else rest)
        except ValueError:
            raise BadSpec(f"cannot parse field descriptor {text!r}") from None
        return RationalFunctionField(p) if ratfunc else PrimeField(p)
    raise BadSpec(f"cannot parse field descriptor {text!r}")


# -- vectors and matrices ---------------------------------------------------

def vector_to_texts(K: Field, v):
    return [K.text(c) for c in v]


def _scalar_from_text(K: Field, text):
    """A document scalar, which must be a JSON string."""
    if not isinstance(text, str):
        raise BadSpec(f"scalar {text!r} is not a string")
    return K.parse(text)


def vector_from_texts(K: Field, texts):
    return tuple(_scalar_from_text(K, t) for t in texts)


def parse_vector_text(K: Field, text: str):
    """A whole vector in one string, comma separated at top level."""
    return vector_from_texts(K, split_top_level(text.strip()))


def hom_to_doc(h):
    """The matrix of an ``AlgHom``, one column per source basis element."""
    K = h.source.field
    M = Matrix.from_map(K, h.target.dim, h.source.dim, h.map)
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


def _index(i):
    """A structure-constant index, which must be a JSON integer."""
    if type(i) is not int:     # bool is a subclass of int
        raise BadSpec(f"structure constant index {i!r} is not an integer")
    return i


def algebra_from_doc(doc: dict) -> FinAlg:
    try:
        K = field_from_doc(doc["field"])
        dim = doc["dim"]
        labels = doc["basis"]
        if type(dim) is not int:     # bool is a subclass of int
            raise BadSpec(f"dim {dim!r} is not an integer")
        if not (isinstance(labels, list)
                and all(isinstance(lab, str) for lab in labels)):
            raise BadSpec("basis must be a list of strings")
        if len(labels) != dim:
            raise BadSpec("basis label count differs from dim")
        check_dim(dim, "the algebra")
        entries = [(_index(i), _index(j), _index(k), _scalar_from_text(K, t))
                   for i, j, k, t in doc["mult"]]
        unit = vector_from_texts(K, doc["unit"]) if "unit" in doc else None
    except (KeyError, TypeError, ValueError) as exc:
        raise BadSpec(f"malformed algebra document: {exc}") from exc
    return make_algebra(K, labels, entries, unit)


def load_algebra(path: str) -> FinAlg:
    return algebra_from_doc(load_json(path))


# -- quivers ------------------------------------------------------------------

def quiver_to_doc(q) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": n, "src": s, "tgt": t} for n, s, t in q.arrows],
        "relations": [{"terms": [{"coeff": str(c), "path": list(p)}
                                 for c, p in rel]}
                      for rel in q.relations],
    }


def quiver_from_doc(doc: dict):
    """The ``tower.QuiverSpec`` a quiver document describes."""
    from .tower import _checked_quiver
    try:
        arrows = [(a["name"], a["src"], a["tgt"]) for a in doc["arrows"]]
        relations = [[(term["coeff"], term["path"]) for term in rel["terms"]]
                     for rel in doc.get("relations", [])]
        return _checked_quiver(doc["vertices"], arrows, relations)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise BadSpec(f"malformed quiver document: {exc}") from exc


def load_quiver(path: str):
    return quiver_from_doc(load_json(path))


# -- towers ---------------------------------------------------------------

def tower_to_doc(T) -> dict:
    K = T.levels[0].field
    return {
        "kind": T.kind,
        "meta": T.meta,
        "levels": [algebra_to_doc(lvl) for lvl in T.levels],
        "maps": [hom_to_doc(h) for h in T.maps],
    }


def tower_from_doc(doc: dict):
    """The ``tower.Tower`` a tower document describes; its number of
    levels is checked before any level is parsed."""
    from .tower import Tower
    try:
        check_depth(len(doc["levels"]))
        levels = [algebra_from_doc(d) for d in doc["levels"]]
        maps = []
        for i, mdoc in enumerate(doc["maps"]):
            M = matrix_from_doc(levels[i].field, mdoc, levels[i + 1].dim)
            maps.append(hom_check(M, levels[i + 1], levels[i]))
        kind = doc.get("kind", "custom")
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise BadSpec("tower metadata must be a JSON object")
    except (KeyError, TypeError, IndexError) as exc:
        raise BadSpec(f"malformed tower document: {exc}") from exc
    T = Tower(levels, maps, kind, meta)
    T.verify()
    return T


def load_tower(path: str):
    return tower_from_doc(load_json(path))


# -- splittings ------------------------------------------------------------

def splitting_to_doc(section, algebra_digest: str) -> dict:
    """The document of a splitting's section, an ``AlgHom``."""
    return {
        "kind": "splitting",
        "algebra_digest": algebra_digest,
        "section": hom_to_doc(section),
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
