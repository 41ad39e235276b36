"""Command-line front end.

Exit codes: 0 for success, 2 for a computed negative mathematical answer
(not separable, not semisimple, not nilpotent), 1 for unusable input or
command line or a run that ran out of memory, 3 for an internal failure:
a computed result failed its own verification or contradicted a theorem.
Every such failure is an ``InternalVerificationFailed``
(``errors._internal`` turns a failed proof of a computed result into one),
the only type ``main`` maps to 3.  It prints one line,
``pca: internal error: ...`` with the seed and the input digest, on stderr
and nothing on stdout.  Reports are deterministic: identical inputs
produce identical bytes.

The command line is read against one table, ``COMMANDS``, which also
gives the usage text.  ``main`` reads FILE once and stamps each report
with the command, the digest of the bytes read and the seed.  Each handler
imports the algorithm modules it runs, so a command does not pay for the
start-up of the others.

``main`` answers one command and returns its exit code; it can be called
in process any number of times.  ``run`` is the process entry, which both
``python -m pca`` and the installed ``pca`` script call: it runs ``main``,
flushes the report, turns a closed stdout into a ``pca: error:`` line and
spares the exiting interpreter its full garbage collections.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

from . import fileio
from .errors import (InternalVerificationFailed, NotSemisimple, PcaError,
                     _internal)


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


def _vecs(K, rows):
    return [fileio.vector_to_texts(K, r) for r in rows]


# -- handlers: (args, FILE's document, its digest) -> (negative, body) --------
# The body holds "results" and "verified", and a composite "input_digest"
# where the command reads more than FILE.

def _cmd_radical(args, doc, digest):
    from .radical import radical, radical_oracle
    A = fileio.algebra_from_doc(doc)
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
    return False, {"results": results, "verified": verified}


def _cmd_wedderburn(args, doc, digest):
    from .wedderburn import central_idempotents
    A = fileio.algebra_from_doc(doc)
    try:
        dec = central_idempotents(A, seed=args.seed)
    except NotSemisimple:
        return True, {"results": {"semisimple": False},
                      "verified": {"radical_checked": True}}
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
    return False, {"results": results, "verified": verified}


def _cmd_septest(args, doc, digest):
    from .separability import is_separable
    A = fileio.algebra_from_doc(doc)
    sep = is_separable(A)
    verified = ({"solution_substituted": True} if sep
                else {"system_inconsistent": True})
    return (not sep), {"results": {"separable": sep}, "verified": verified}


def _cmd_sepidem(args, doc, digest):
    from .separability import sep_idempotent
    A = fileio.algebra_from_doc(doc)
    p = sep_idempotent(A)
    if p is None:
        return True, {"results": {"separable": False},
                      "verified": {"system_inconsistent": True}}
    n = A.dim
    K = A.field
    coeffs = [[st // n, st % n, K.text(c)]
              for st, c in enumerate(p.tensor_coeffs) if not K.is_zero(c)]
    results = {"separable": True, "dim": n, "tensor_coeffs": coeffs}
    return False, {"results": results,
                   "verified": {"defining_equations": True}}


def _cmd_nilpotent(args, doc, digest):
    from .separability import nilpotent_witness
    A = fileio.algebra_from_doc(doc)
    x = fileio.parse_vector_text(A.field, args.element)
    if len(x) != A.dim:
        raise PcaError(f"element has {len(x)} coordinates, need {A.dim}")
    w = nilpotent_witness(A, x)
    results = {"nilpotent": w is not None, "witness": w}
    return (w is None), {"results": results, "verified": {}}


def _cmd_split(args, doc, digest):
    from .malcev import wedderburn_splitting
    A = fileio.algebra_from_doc(doc)
    s = wedderburn_splitting(A, seed=args.seed)
    K = A.field
    results = {
        "radical_dim": s.radical.radical.dim,
        "quotient_dim": s.quotient.dim,
        "section": fileio.hom_to_doc(s.section),
        "image_basis": _vecs(K, s.image.basis),
    }
    if args.output:
        fileio.save_canonical(args.output,
                              fileio.splitting_to_doc(s.section, digest))
    verified = {"section_multiplicative": True, "complement": True}
    return False, {"results": results, "verified": verified}


def _cmd_conjugate(args, doc, digest):
    from .malcev import malcev_conjugator, splitting_from_section_matrix
    A = fileio.algebra_from_doc(doc)
    doc1, digest1 = fileio.load_json(args.s1)
    m1 = fileio.splitting_matrix_from_doc(doc1, A, digest)
    doc2, digest2 = fileio.load_json(args.s2)
    m2 = fileio.splitting_matrix_from_doc(doc2, A, digest)
    s1 = splitting_from_section_matrix(A, m1)
    s2 = splitting_from_section_matrix(A, m2, s1.radical,
                                       (s1.quotient, s1.projection))
    omega = malcev_conjugator(s1, s2)
    results = {"omega": fileio.vector_to_texts(A.field, omega),
               "radical_dim": s1.radical.radical.dim}
    digests = {"algebra": digest, "s1": digest1, "s2": digest2}
    return False, {"input_digest": digests, "results": results,
                   "verified": {"conjugation_exact": True}}


def _cmd_tower_build(args, doc, digest):
    from .tower import (cyclic_group_tower, path_algebra_tower,
                        power_series_tower, product_tower)
    K = fileio.parse_field_text(args.field)
    # a generated tower's digest is that of its options
    spec = {"kind": args.kind, "field": args.field, "depth": args.depth}
    if args.kind == "powerseries":
        T = power_series_tower(K, args.depth)
        digest = fileio.digest_bytes(fileio.canonical_dumps(spec).encode())
    elif args.kind == "cyclicgroup":
        if args.prime is None:
            raise PcaError("cyclicgroup towers need --prime")
        T = cyclic_group_tower(args.prime, K, args.depth)
        spec["prime"] = args.prime
        digest = fileio.digest_bytes(fileio.canonical_dumps(spec).encode())
    elif args.kind == "path":
        if not args.quiver:
            raise PcaError("path towers need --quiver")
        qdoc, digest = fileio.load_json(args.quiver)
        T = path_algebra_tower(fileio.quiver_from_doc(qdoc), K, args.depth)
    else:                               # "product", the last kind
        if not args.factor:
            raise PcaError("product towers need at least one --factor")
        factors, digest = [], {}
        for f in args.factor:
            fdoc, digest[f] = fileio.load_json(f)
            factors.append(fileio.algebra_from_doc(fdoc))
        T = product_tower(factors, args.depth)
    _internal(T.verify)
    fileio.save_canonical(args.output, fileio.tower_to_doc(T))
    results = {"kind": T.kind, "depth": T.depth,
               "level_dims": [lvl.dim for lvl in T.levels],
               "output": args.output}
    return False, {"input_digest": digest, "results": results,
                   "verified": {"maps_surjective": True}}


def _cmd_tower_check(args, doc, digest):
    from .tower import (quiver_radical_check, tower_radical_check,
                        tower_radicals)
    T = fileio.tower_from_doc(doc)
    results = {"kind": T.kind}
    rads = tower_radicals(T)
    results.update(tower_radical_check(T, rads))
    results["all_levels_semisimple"] = not any(results["radical_dims"])
    verified = {"radical_onto_radical": True}
    if T.kind == "path" and "quiver" in T.meta:
        results["arrow_ideal_is_radical"] = quiver_radical_check(T, rads)
        verified["arrow_ideal_is_radical"] = True
    return False, {"results": results, "verified": verified}


# -- the command line ---------------------------------------------------------

REQUIRED = object()

# command -> (handler, positionals, options).  An option is (names, kind,
# default): kind is "flag", "str", "int", "append" (a repeatable str) or the
# tuple of its allowed values, and a default of REQUIRED makes it required.
# Its value lands under its last name without the dashes.
COMMON = [("--json", "flag", False), ("--seed", "int", 0)]
COMMANDS = {
    "radical": (_cmd_radical, ["file"], [("--oracle", "flag", False)]),
    "wedderburn": (_cmd_wedderburn, ["file"], []),
    "septest": (_cmd_septest, ["file"], []),
    "sepidem": (_cmd_sepidem, ["file"], []),
    "nilpotent": (_cmd_nilpotent, ["file"], [("--element", "str", REQUIRED)]),
    "split": (_cmd_split, ["file"], [("-o/--output", "str", None)]),
    "conjugate": (_cmd_conjugate, ["file"], [("--s1", "str", REQUIRED),
                                             ("--s2", "str", REQUIRED)]),
    "tower build": (_cmd_tower_build, [], [
        ("--kind", ("powerseries", "cyclicgroup", "path", "product"),
         REQUIRED),
        ("--field", "str", REQUIRED), ("--depth", "int", REQUIRED),
        ("--quiver", "str", None), ("--prime", "int", None),
        ("--factor", "append", None), ("-o/--output", "str", REQUIRED)]),
    "tower check": (_cmd_tower_check, ["file"], []),
}


def _dest(names):
    return names.split("/")[-1].lstrip("-")


def _synopsis(positionals, options):
    words = [p.upper() for p in positionals]
    for names, kind, default in options:
        meta = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                else "" if kind == "flag" else _dest(names).upper())
        word = f"{names} {meta}".strip()
        words.append(word if default is REQUIRED else f"[{word}]"
                     + ("..." if kind == "append" else ""))
    return " ".join(words)


def usage() -> str:
    return "".join([
        f"usage: pca COMMAND ... {_synopsis([], COMMON)}\n\ncommands:\n",
        *(f"  pca {name} {_synopsis(pos, opts)}\n"
          for name, (_, pos, opts) in COMMANDS.items()),
        "\n--json prints the machine-readable report; --seed (default 0) "
        "seeds the randomized inner steps.\n"])


def parse_args(argv):
    """The values ``argv`` gives its command, read against COMMANDS, with
    the command's name and ``handler``; a usage error raises PcaError."""
    name = " ".join(argv[:2] if argv[:1] == ["tower"] else argv[:1])
    if name not in COMMANDS:
        raise PcaError((f"unknown command {name!r}" if name else "no command")
                       + "; choose from " + ", ".join(COMMANDS))
    handler, positionals, options = COMMANDS[name]
    options = COMMON + options
    by_name = {n: opt for opt in options for n in opt[0].split("/")}
    values = {_dest(names): default for names, _, default in options}
    given, words = [], iter(argv[len(name.split()):])
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag not in by_name:
            raise PcaError(f"unrecognized arguments: {word}")
        names, kind, _ = by_name[flag]
        if kind == "flag" and eq:
            raise PcaError(f"argument {flag}: takes no value")
        if kind != "flag" and not eq:
            value = next(words, None)
            # a negative number is a value, any other dashed word an option
            if value is None or value[:1] == "-" and not value[1:2].isdigit():
                raise PcaError(f"argument {flag}: expected one argument")
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise PcaError(f"argument {flag}: invalid int value: "
                               f"{value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise PcaError(f"argument {flag}: invalid choice: {value!r} "
                           f"(choose from {', '.join(kind)})")
        dest = _dest(names)
        values[dest] = (True if kind == "flag" else value if kind != "append"
                        else (values[dest] or []) + [value])
    if len(given) > len(positionals):
        raise PcaError("unrecognized arguments: "
                       + " ".join(given[len(positionals):]))
    values.update(zip(positionals, given))
    missing = positionals[len(given):] + [
        names for names, _, _ in options if values[_dest(names)] is REQUIRED]
    if missing:
        raise PcaError("the following arguments are required: "
                       + ", ".join(missing))
    return SimpleNamespace(command=name, handler=handler, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(usage())
        return 0
    doc = digest = None
    try:
        args = parse_args(argv)
        if hasattr(args, "file"):
            doc, digest = fileio.load_json(args.file)
        negative, body = args.handler(args, doc, digest)
    except InternalVerificationFailed as exc:
        where = f"seed {args.seed}"
        if digest is not None:
            where += f", input {digest}"
        print(f"pca: internal error: {exc} ({where})", file=sys.stderr)
        return 3
    except (OSError, PcaError) as exc:
        # a PcaError's first argument is its message, the others a witness
        msg = exc.args[0] if isinstance(exc, PcaError) else exc
        print(f"pca: error: {msg}", file=sys.stderr)
        return 1
    except MemoryError:
        print("pca: error: out of memory", file=sys.stderr)
        return 1
    report = {"command": args.command, "input_digest": digest,
              "seed": args.seed, **body}
    sys.stdout.write(render_report(report, args.json))
    return 2 if negative else 0


def run(argv=None) -> int:
    """``main`` as a whole process: returns the exit code for ``sys.exit``.

    A reader that closed stdout before the report was written makes its
    write or flush raise ``BrokenPipeError``.  Then fd 1 is pointed at
    ``os.devnull``, as the Python documentation's note on SIGPIPE does, so
    that the interpreter's own flush at exit stays silent, and the process
    prints one ``pca: error:`` line and exits 1.

    Last, ``gc.freeze()`` moves every object the collector tracks into its
    permanent generation, so the full collections that interpreter
    finalization runs skip them.  Nothing else of the exit changes: module
    teardown, the flush of stdout and stderr and the ``atexit`` handlers
    all still run, and ``pca`` defines no ``__del__``, weakref finalizer or
    ``atexit`` hook whose call could be lost.  (``os._exit`` would save a
    little more, but it skips ``atexit`` and the flush of open files.)
    The saving grows with the objects alive at exit, most of which ``site``
    creates.  Only a process about to end may freeze: in a long-lived
    process a frozen object is never collected, so in-process callers use
    ``main``.
    """
    try:
        code = main(argv)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"pca: error: cannot write the report: {exc}", file=sys.stderr)
        code = 1
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
