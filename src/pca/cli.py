"""Command-line front end.

Exit codes: 0 for success, 2 for a computed negative mathematical answer
(not separable, not semisimple, not nilpotent), 1 for unusable input or
command line.  Reports are deterministic: identical inputs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .errors import PcaError, InternalVerificationFailed, TheoremViolation
from .malcev import (malcev_conjugator, splitting_from_section_matrix,
                     wedderburn_splitting)
from .radical import radical, radical_oracle
from .separability import is_separable, nilpotent_witness, sep_idempotent
from .tower import (cyclic_group_tower, path_algebra_tower,
                    power_series_tower, product_tower, quiver_radical_check,
                    tower_radical_check)
from .wedderburn import central_idempotents


def _flatten(prefix, val, lines):
    if isinstance(val, dict):
        for key in sorted(val):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(sub, val[key], lines)
    elif isinstance(val, list):
        if all(not isinstance(x, (dict, list)) for x in val):
            body = ", ".join("null" if x is None else str(x) for x in val)
            lines.append(f"{prefix} = [{body}]")
        else:
            for i, x in enumerate(val):
                _flatten(f"{prefix}[{i}]", x, lines)
    elif val is None:
        lines.append(f"{prefix} = null")
    elif isinstance(val, bool):
        lines.append(f"{prefix} = {'true' if val else 'false'}")
    else:
        lines.append(f"{prefix} = {val}")


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return fileio.canonical_dumps(report)
    lines = []
    _flatten("", report, lines)
    return "\n".join(lines) + "\n"


def _report(command: str, digest, seed: int, results: dict,
            verified: dict) -> dict:
    return {"command": command, "input_digest": digest, "seed": seed,
            "results": results, "verified": verified}


def _vecs(K, rows):
    return [fileio.vector_to_texts(K, r) for r in rows]


# -- handlers: return (negative, report) -------------------------------------

def _cmd_radical(args):
    A = fileio.load_algebra(args.file)
    digest = fileio.digest_file(args.file)
    oracle = radical_oracle(A) if args.oracle else None
    rr = radical(A)
    space, index, method = rr.radical.space, rr.nilpotency_index, rr.method
    verified = {"ideal": True, "nilpotent": True}
    if oracle is None:
        verified["semisimple_quotient"] = True
    elif oracle.space != space:
        raise InternalVerificationFailed(
            "oracle and main method disagree on the radical")
    else:
        method = "brute_force"
        verified["matches_main_method"] = True
    results = {
        "dim": A.dim,
        "radical_dim": space.dim,
        "radical_basis": _vecs(A.field, space.basis),
        "nilpotency_index": index,
        "method": method,
    }
    return False, _report("radical", digest, args.seed, results, verified)


def _cmd_wedderburn(args):
    from .errors import NotSemisimple
    A = fileio.load_algebra(args.file)
    digest = fileio.digest_file(args.file)
    try:
        dec = central_idempotents(A, seed=args.seed)
    except NotSemisimple:
        results = {"semisimple": False}
        return True, _report("wedderburn", digest, args.seed, results,
                             {"radical_checked": True})
    blocks = []
    for d in dec.block_data:
        entry = {"dim": d["total_dim"], "center_dim": d["center_dim"]}
        if "matrix_degree" in d:
            entry["matrix_degree"] = d["matrix_degree"]
        blocks.append(entry)
    results = {
        "semisimple": True,
        "blocks": blocks,
        "idempotents": _vecs(A.field, dec.idempotents),
    }
    verified = {"orthogonal_complete": True, "reassembly_isomorphism": True}
    return False, _report("wedderburn", digest, args.seed, results, verified)


def _cmd_septest(args):
    A = fileio.load_algebra(args.file)
    digest = fileio.digest_file(args.file)
    sep = is_separable(A)
    results = {"separable": sep}
    return (not sep), _report("septest", digest, args.seed, results,
                              {"solution_substituted": True})


def _cmd_sepidem(args):
    A = fileio.load_algebra(args.file)
    digest = fileio.digest_file(args.file)
    p = sep_idempotent(A)
    if p is None:
        results = {"separable": False}
        return True, _report("sepidem", digest, args.seed, results,
                             {"system_inconsistent": True})
    n = A.dim
    K = A.field
    coeffs = [[st // n, st % n, K.text(c)]
              for st, c in enumerate(p.tensor_coeffs) if not K.is_zero(c)]
    results = {"separable": True, "dim": n, "tensor_coeffs": coeffs}
    return False, _report("sepidem", digest, args.seed, results,
                          {"defining_equations": True})


def _cmd_nilpotent(args):
    A = fileio.load_algebra(args.file)
    digest = fileio.digest_file(args.file)
    x = fileio.parse_vector_text(A.field, args.element)
    if len(x) != A.dim:
        raise PcaError(f"element has {len(x)} coordinates, need {A.dim}")
    w = nilpotent_witness(A, x)
    results = {"nilpotent": w is not None, "witness": w}
    return (w is None), _report("nilpotent", digest, args.seed, results, {})


def _cmd_split(args):
    A = fileio.load_algebra(args.file)
    digest = fileio.digest_file(args.file)
    s = wedderburn_splitting(A, seed=args.seed)
    K = A.field
    results = {
        "radical_dim": s.radical.radical.dim,
        "quotient_dim": s.quotient.dim,
        "section": fileio.matrix_to_doc(K, s.section.matrix),
        "image_basis": _vecs(K, s.image.basis),
    }
    if args.output:
        fileio.save_canonical(args.output,
                              fileio.splitting_to_doc(K, s.section.matrix,
                                                      digest))
    verified = {"section_multiplicative": True, "complement": True}
    return False, _report("split", digest, args.seed, results, verified)


def _cmd_conjugate(args):
    A = fileio.load_algebra(args.file)
    digest = fileio.digest_file(args.file)
    m1 = fileio.splitting_matrix_from_doc(fileio.load_json(args.s1), A, digest)
    m2 = fileio.splitting_matrix_from_doc(fileio.load_json(args.s2), A, digest)
    s1 = splitting_from_section_matrix(A, m1)
    s2 = splitting_from_section_matrix(A, m2)
    omega = malcev_conjugator(s1, s2)
    results = {"omega": fileio.vector_to_texts(A.field, omega),
               "radical_dim": s1.radical.radical.dim}
    digests = {"algebra": digest, "s1": fileio.digest_file(args.s1),
               "s2": fileio.digest_file(args.s2)}
    return False, _report("conjugate", digests, args.seed, results,
                          {"conjugation_exact": True})


def _cmd_tower_build(args):
    K = fileio.parse_field_text(args.field)
    if args.kind == "powerseries":
        T = power_series_tower(K, args.depth)
        digest = fileio.digest_bytes(fileio.canonical_dumps(
            {"kind": args.kind, "field": args.field,
             "depth": args.depth}).encode())
    elif args.kind == "cyclicgroup":
        if args.prime is None:
            raise PcaError("cyclicgroup towers need --prime")
        T = cyclic_group_tower(args.prime, K, args.depth)
        digest = fileio.digest_bytes(fileio.canonical_dumps(
            {"kind": args.kind, "field": args.field, "prime": args.prime,
             "depth": args.depth}).encode())
    elif args.kind == "path":
        if not args.quiver:
            raise PcaError("path towers need --quiver")
        q = fileio.load_quiver(args.quiver)
        T = path_algebra_tower(q, K, args.depth)
        digest = fileio.digest_file(args.quiver)
    elif args.kind == "product":
        if not args.factor:
            raise PcaError("product towers need at least one --factor")
        factors = [fileio.load_algebra(f) for f in args.factor]
        T = product_tower(factors, args.depth)
        digest = {f: fileio.digest_file(f) for f in args.factor}
    else:
        raise PcaError(f"unknown tower kind {args.kind!r}")
    fileio.save_canonical(args.output, fileio.tower_to_doc(T))
    results = {"kind": T.kind, "depth": T.depth,
               "level_dims": [lvl.dim for lvl in T.levels],
               "output": args.output}
    return False, _report("tower build", digest, args.seed, results,
                          {"maps_surjective": True})


def _cmd_tower_check(args):
    T = fileio.load_tower(args.file)
    digest = fileio.digest_file(args.file)
    results = {"kind": T.kind}
    results.update(tower_radical_check(T))
    results["all_levels_semisimple"] = not any(results["radical_dims"])
    verified = {"radical_onto_radical": True}
    if T.kind == "path" and "quiver" in T.meta:
        results["arrow_ideal_is_radical"] = quiver_radical_check(T)
        verified["arrow_ideal_is_radical"] = True
    return False, _report("tower check", digest, args.seed, results, verified)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other bad input; 2 is a negative answer."""

    def error(self, message):
        self.exit(1, f"pca: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized inner steps (default 0)")
    parser = _Parser(
        prog="pca",
        description="Exact structure theory for finite-dimensional "
                    "associative algebras and their towers.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("radical", parents=[common],
                        help="Jacobson radical of an algebra file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force enumeration instead")
    p.set_defaults(handler=_cmd_radical)

    p = subs.add_parser("wedderburn", parents=[common],
                        help="block decomposition of a semisimple algebra")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_wedderburn)

    p = subs.add_parser("septest", parents=[common],
                        help="decide separability")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_septest)

    p = subs.add_parser("sepidem", parents=[common],
                        help="compute a separability idempotent")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_sepidem)

    p = subs.add_parser("nilpotent", parents=[common],
                        help="nilpotency witness of an element")
    p.add_argument("file")
    p.add_argument("--element", required=True,
                   help="comma-separated scalar coordinates")
    p.set_defaults(handler=_cmd_nilpotent)

    p = subs.add_parser("split", parents=[common],
                        help="Wedderburn-Malcev splitting")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="write the splitting document here")
    p.set_defaults(handler=_cmd_split)

    p = subs.add_parser("conjugate", parents=[common],
                        help="conjugator between two splittings")
    p.add_argument("file")
    p.add_argument("--s1", required=True)
    p.add_argument("--s2", required=True)
    p.set_defaults(handler=_cmd_conjugate)

    tower = subs.add_parser("tower", help="build and check towers")
    tsubs = tower.add_subparsers(dest="tower_command", required=True)
    p = tsubs.add_parser("build", parents=[common])
    p.add_argument("--kind", required=True,
                   choices=["powerseries", "cyclicgroup", "path", "product"])
    p.add_argument("--field", required=True, help="Q, F<p> or F<p>(t)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--quiver", help="quiver file for path towers")
    p.add_argument("--prime", type=int, help="prime for cyclicgroup towers")
    p.add_argument("--factor", action="append",
                   help="algebra file for product towers (repeatable)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_tower_build)
    p = tsubs.add_parser("check", parents=[common])
    p.add_argument("file")
    p.set_defaults(handler=_cmd_tower_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        negative, report = args.handler(args)
    except (InternalVerificationFailed, TheoremViolation):
        raise
    except (OSError, PcaError) as exc:
        print(f"pca: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(render_report(report, args.json))
    return 2 if negative else 0


if __name__ == "__main__":
    sys.exit(main())
