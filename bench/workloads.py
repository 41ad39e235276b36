"""Seeded input files and job lists for the four benchmark workloads.

The generator uses the standard library only and never imports ``pca``: it
writes algebra documents straight from structure constants, so the program
under test receives nothing but files.  Every algebra comes from a
construction whose invariants are known in advance (dimension, radical
dimension, nilpotency index, block dimensions, separability), and each job
carries those invariants for the correctness gate.

The seed changes the inputs without changing their sizes: it relabels
the natural bases by a random permutation, picks the seed of each ``split``
and rewrites the ``dense_basis`` algebras under a random unitriangular
change of basis.  Tower jobs and their inputs do not depend on the seed,
except the ``dense_basis`` product tower, whose factors are rewritten too.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

WORKLOADS = ("sparse_solve", "radical_tower", "dense_basis", "cli_small")

# subcommand key of each job, used for the per-command time sums
COMMANDS = ("radical", "wedderburn", "septest", "sepidem", "nilpotent",
            "split", "conjugate", "tower_build", "tower_check")

Q = {"kind": "rationals"}
F2T = {"kind": "ratfunc", "p": 2}
QSQRT2 = {"kind": "extension", "base": Q, "minpoly": ["-2", "0", "1"],
          "name": "r"}


def FP(p):
    return {"kind": "primefield", "p": p}


F4 = {"kind": "extension", "base": FP(2), "minpoly": ["1", "1", "1"],
      "name": "w"}


# -- algebras by construction ----------------------------------------------

@dataclass
class Alg:
    """Structure constants ``mult[(i, j, k)]`` with known invariants.

    Scalars are Fractions over Q, ints over F_p, and canonical text over
    the other fields (those algebras are only ever relabelled).
    ``blocks`` lists the Wedderburn block dimensions when the algebra is
    semisimple over Q or F_p, else None.
    """
    field: dict
    labels: list
    mult: dict
    unit: list
    radical_dim: int | None
    index: int | None
    separable: bool
    blocks: list | None = None

    @property
    def dim(self):
        return len(self.labels)

    @property
    def p(self):
        return self.field["p"] if self.field["kind"] == "primefield" else 0

    def zero(self):
        return 0 if self.p else Fraction(0)

    def text(self, c):
        if isinstance(c, str):
            return c
        return str(c % self.p) if self.p else str(c)

    def doc(self) -> dict:
        entries = sorted((i, j, k, self.text(c))
                         for (i, j, k), c in self.mult.items()
                         if self.text(c) != "0")
        return {"field": self.field, "dim": self.dim,
                "basis": list(self.labels),
                "unit": [self.text(c) for c in self.unit],
                "mult": [list(e) for e in entries]}


def _totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _order_mod(p, d):
    if d == 1:
        return 1
    k, x = 1, p % d
    while x != 1:
        x = x * p % d
        k += 1
    return k


def _scalar_one(K):
    if K["kind"] == "rationals":
        return Fraction(1)
    if K["kind"] == "primefield":
        return 1
    return "1"


def _scalar_zero(K):
    one = _scalar_one(K)
    return "0" if isinstance(one, str) else one - one


def _unit(K, n, i=0):
    return [_scalar_one(K) if k == i else _scalar_zero(K) for k in range(n)]


def cyclic(n, K) -> Alg:
    """Group algebra K C_n on the group elements."""
    labels = ["1"] + [f"g^{i}" for i in range(1, n)]
    mult = {(i, j, (i + j) % n): _scalar_one(K)
            for i in range(n) for j in range(n)}
    rdim, index, blocks = 0, 0, None
    if K["kind"] == "rationals":
        blocks = [_totient(d) for d in range(1, n + 1) if n % d == 0]
    elif K["kind"] == "primefield" or K.get("base", {}).get("p"):
        # over F_p or an extension of it the radical is the same size
        p, m, pa = K.get("p") or K["base"]["p"], n, 1
        while m % p == 0:
            m //= p
            pa *= p
        if pa > 1:
            rdim, index = n - m, pa
        elif K["kind"] == "primefield":
            blocks = []
            for d in range(1, n + 1):
                if n % d == 0:
                    o = _order_mod(p, d)
                    blocks += [o] * (_totient(d) // o)
    return Alg(K, labels, mult, _unit(K, n), rdim, index, rdim == 0,
               sorted(blocks) if blocks is not None else None)


def matrix(n, K) -> Alg:
    idx = {(i, j): i * n + j for i in range(n) for j in range(n)}
    labels = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    mult = {(a, b, idx[(i, l)]): _scalar_one(K)
            for (i, j), a in idx.items() for (k, l), b in idx.items()
            if j == k}
    unit = [_scalar_zero(K)] * (n * n)
    for i in range(n):
        unit[idx[(i, i)]] = _scalar_one(K)
    return Alg(K, labels, mult, unit, 0, 0, True, [n * n])


def triangular(n, K) -> Alg:
    pos = [(i, j) for i in range(n) for j in range(i, n)]
    idx = {q: a for a, q in enumerate(pos)}
    labels = [f"E{i + 1}{j + 1}" for i, j in pos]
    mult = {(a, b, idx[(i, l)]): _scalar_one(K)
            for (i, j), a in idx.items() for (k, l), b in idx.items()
            if j == k}
    unit = [_scalar_zero(K)] * len(pos)
    for i in range(n):
        unit[idx[(i, i)]] = _scalar_one(K)
    return Alg(K, labels, mult, unit, n * (n - 1) // 2, n, n == 1)


def truncated(n, K) -> Alg:
    """K[x]/(x^n)."""
    labels = ["1"] + [f"x^{i}" for i in range(1, n)]
    mult = {(i, j, i + j): _scalar_one(K)
            for i in range(n) for j in range(n) if i + j < n}
    return Alg(K, labels, mult, _unit(K, n), n - 1, n if n > 1 else 0,
               n == 1, [1] if n == 1 else None)


def product(factors) -> Alg:
    K = factors[0].field
    labels, mult, unit, off = [], {}, [], 0
    for t, a in enumerate(factors):
        labels += [f"{t}:{lab}" for lab in a.labels]
        for (i, j, k), c in a.mult.items():
            mult[(off + i, off + j, off + k)] = c
        unit += a.unit
        off += a.dim
    blocks = ([b for a in factors for b in a.blocks]
              if all(a.blocks is not None for a in factors) else None)
    return Alg(K, labels, mult, unit,
               sum(a.radical_dim for a in factors),
               max(a.index for a in factors),
               all(a.separable for a in factors),
               sorted(blocks) if blocks is not None else None)


def trivial_extension(B: Alg) -> Alg:
    """B (+) B with (a, m)(b, n) = (ab, an + mb), for semisimple B: the
    second copy is the radical and squares to zero."""
    n = B.dim
    mult = dict(B.mult)
    for (i, j, k), c in B.mult.items():
        mult[(i, n + j, n + k)] = c
        mult[(n + i, j, n + k)] = c
    labels = list(B.labels) + [f"m:{lab}" for lab in B.labels]
    unit = list(B.unit) + [_scalar_zero(B.field)] * n
    return Alg(B.field, labels, mult, unit, n, 2, False)


def inseparable_field() -> Alg:
    """F_2(t)[x]/(x^2 - t): a field, semisimple but not separable."""
    mult = {(0, 0, 0): "1", (0, 1, 1): "1", (1, 0, 1): "1", (1, 1, 0): "t"}
    return Alg(F2T, ["1", "x"], mult, ["1", "0"], None, None, False)


def inseparable_square() -> Alg:
    """E (x) E for E = F_2(t)[x]/(x^2 - t) on the basis 1, x, y, xy; the
    element x + y squares to t + t = 0."""
    mult = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    # (x^a y^b)(x^c y^d) = x^(a+c) y^(b+d), x^2 = y^2 = t
                    e, f = a + c, b + d
                    t = (e // 2) + (f // 2)
                    coeff = "1" if t == 0 else ("t" if t == 1 else "t^2")
                    mult[(a + 2 * b, c + 2 * d, e % 2 + 2 * (f % 2))] = coeff
    return Alg(F2T, ["1", "x", "y", "xy"], mult, ["1", "0", "0", "0"],
               None, None, False)


# -- seeded rewrites -------------------------------------------------------

def relabel(A: Alg, rng: random.Random) -> Alg:
    """The same algebra with its basis listed in a random order."""
    perm = list(range(A.dim))
    rng.shuffle(perm)            # old index i becomes perm[i]
    labels = [None] * A.dim
    unit = [None] * A.dim
    for i, lab in enumerate(A.labels):
        labels[perm[i]] = lab
        unit[perm[i]] = A.unit[i]
    mult = {(perm[i], perm[j], perm[k]): c
            for (i, j, k), c in A.mult.items()}
    return Alg(A.field, labels, mult, unit, A.radical_dim, A.index,
               A.separable, A.blocks)


def change_basis(A: Alg, rng: random.Random) -> Alg:
    """A under f_a = e_a + sum_{b > a} P[a][b] e_b with P[a][b] = +-1.

    P is unitriangular, so its inverse is integral and the structure
    constants stay integral (reduced mod p over F_p), but dense."""
    n = A.dim
    P = [[1 if a == b else (rng.choice((-1, 1)) if b > a else 0)
          for b in range(n)] for a in range(n)]
    # Pinv by back substitution: e_a = sum_b Pinv[a][b] f_b
    Pinv = [[0] * n for _ in range(n)]
    for a in reversed(range(n)):
        Pinv[a][a] = 1
        for b in range(a + 1, n):
            for c in range(n):
                Pinv[a][c] -= P[a][b] * Pinv[b][c]
    zero = A.zero()
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j, k), c in A.mult.items():
        table[i][j][k] += c
    # products f_a f_b in the old basis, then converted to the new one
    mult = {}
    for a in range(n):
        for b in range(n):
            old = [zero] * n
            for i in range(n):
                if not P[a][i]:
                    continue
                for j in range(n):
                    if not P[b][j]:
                        continue
                    w = P[a][i] * P[b][j]
                    row = table[i][j]
                    for k in range(n):
                        if row[k]:
                            old[k] += w * row[k]
            for c in range(n):
                s = sum(old[k] * Pinv[k][c] for k in range(n) if old[k])
                if s % A.p if A.p else s:
                    mult[(a, b, c)] = s % A.p if A.p else s
    unit = [sum(A.unit[k] * Pinv[k][c] for k in range(n)) for c in range(n)]
    if A.p:
        unit = [u % A.p for u in unit]
    labels = [f"f{a}" for a in range(n)]
    return Alg(A.field, labels, mult, unit, A.radical_dim, A.index,
               A.separable, A.blocks)


# -- jobs ------------------------------------------------------------------

@dataclass
class Job:
    """One ``pca`` invocation: argv after ``pca``, with file names relative
    to the work directory, and what the gate expects of it.

    ``expect`` maps result keys to values known by construction; keys with
    a ``len:`` prefix give the expected length of a list result, and
    ``blocks`` the sorted block dimensions.  ``seeded`` is False when the
    job's input does not depend on the seed, so its recorded results apply
    to every seed."""
    name: str
    cmd: str
    argv: list
    exit: int = 0
    expect: dict = field(default_factory=dict)
    seeded: bool = True


@dataclass
class Workload:
    name: str
    files: dict            # file name -> document
    jobs: list


def _method(A: Alg):
    """The radical method ``pca`` must choose: the trace form unless the
    characteristic is positive and at most the dimension."""
    char = A.p or A.field.get("base", {}).get("p", 0)
    return "trace_form" if char == 0 or char > A.dim or A.dim == 1 \
        else "char_p_chain"


class _Builder:
    """Collects one workload's files and jobs, drawing every seeded choice
    from one generator in a fixed order."""

    def __init__(self, name, seed):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.files = {}
        self.jobs = []
        self.algs = {}

    def alg(self, tag, A: Alg, dense=False, seeded=True):
        """Write A as ``<tag>.alg``: relabelled when ``seeded``, and under
        a seeded change of basis when ``dense``."""
        if seeded:
            A = relabel(A, self.rng)
        if dense:
            A = change_basis(A, self.rng)
        fname = f"{tag}.alg"
        self.files[fname] = A.doc()
        self.algs[tag] = A
        return tag

    def job(self, name, cmd, argv, exit=0, expect=None, seeded=True):
        self.jobs.append(Job(name, cmd, list(argv), exit, expect or {},
                             seeded))

    # one method per subcommand, expectations derived from the Alg

    def radical(self, tag):
        A = self.algs[tag]
        self.job(f"radical:{tag}", "radical", ["radical", f"{tag}.alg"],
                 expect={"dim": A.dim, "radical_dim": A.radical_dim,
                         "len:radical_basis": A.radical_dim,
                         "nilpotency_index": A.index,
                         "method": _method(A)})

    def wedderburn(self, tag):
        A = self.algs[tag]
        if A.radical_dim:
            self.job(f"wedderburn:{tag}", "wedderburn",
                     ["wedderburn", f"{tag}.alg"], exit=2,
                     expect={"semisimple": False})
        else:
            self.job(f"wedderburn:{tag}", "wedderburn",
                     ["wedderburn", f"{tag}.alg"],
                     expect={"semisimple": True, "blocks": A.blocks,
                             "len:idempotents": len(A.blocks)})

    def septest(self, tag):
        A = self.algs[tag]
        self.job(f"septest:{tag}", "septest", ["septest", f"{tag}.alg"],
                 exit=0 if A.separable else 2,
                 expect={"separable": A.separable})

    def sepidem(self, tag):
        A = self.algs[tag]
        expect = {"separable": A.separable}
        if A.separable:
            expect["dim"] = A.dim
        self.job(f"sepidem:{tag}", "sepidem", ["sepidem", f"{tag}.alg"],
                 exit=0 if A.separable else 2, expect=expect)

    def nilpotent(self, tag, coords, index):
        """coords: the element in the natural basis before relabelling."""
        A = self.algs[tag]
        vec = [A.text(_scalar_zero(A.field))] * A.dim
        for lab, c in coords.items():
            vec[A.labels.index(lab)] = c
        self.job(f"nilpotent:{tag}:{'+'.join(coords)}", "nilpotent",
                 ["nilpotent", f"{tag}.alg", "--element", ",".join(vec)],
                 exit=0 if index else 2,
                 expect={"nilpotent": bool(index), "witness": index})

    def split_and_conjugate(self, tag):
        A = self.algs[tag]
        qdim = A.dim - A.radical_dim
        seeds = self.rng.sample(range(100), 2)
        for k, s in enumerate(seeds, start=1):
            self.job(f"split:{tag}:{k}", "split",
                     ["split", f"{tag}.alg", "--seed", str(s),
                      "-o", f"{tag}.s{k}.json"],
                     expect={"radical_dim": A.radical_dim,
                             "quotient_dim": qdim,
                             "len:image_basis": qdim})
        self.job(f"conjugate:{tag}", "conjugate",
                 ["conjugate", f"{tag}.alg", "--s1", f"{tag}.s1.json",
                  "--s2", f"{tag}.s2.json"],
                 expect={"radical_dim": A.radical_dim, "len:omega": A.dim})

    def tower(self, tag, build_args, level_dims, seeded=False):
        self.job(f"tower_build:{tag}", "tower_build",
                 ["tower", "build", *build_args, "-o", f"{tag}.tower"],
                 expect={"level_dims": level_dims,
                         "depth": len(level_dims)}, seeded=seeded)
        self.job(f"tower_check:{tag}", "tower_check",
                 ["tower", "check", f"{tag}.tower"],
                 expect={"level_dims": level_dims,
                         "radical_onto_radical": True}, seeded=seeded)

    def product_tower(self, tag, factors, dense=False):
        """A product tower over factor files that are not relabelled; with
        ``dense`` each factor gets a seeded change of basis."""
        args = ["--kind", "product", "--field",
                f"F{factors[0].p}" if factors[0].p else "Q",
                "--depth", str(len(factors))]
        dims = []
        for t, A in enumerate(factors):
            name = self.alg(f"{tag}.f{t}", A, dense=dense, seeded=False)
            args += ["--factor", f"{name}.alg"]
            dims.append(A.dim + (dims[-1] if dims else 0))
        self.tower(tag, args, dims, seeded=dense)

    def malformed(self, tag, text):
        self.files[f"{tag}.alg"] = text
        self.job(f"malformed:{tag}", "radical", ["radical", f"{tag}.alg"],
                 exit=1)

    def done(self):
        return Workload(self.name, self.files, self.jobs)


LOOP = {"vertices": ["v"], "arrows": [{"name": "x", "src": "v", "tgt": "v"}],
        "relations": []}
KRONECKER = {"vertices": ["v1", "v2"],
             "arrows": [{"name": "a", "src": "v1", "tgt": "v2"},
                        {"name": "b", "src": "v1", "tgt": "v2"}],
             "relations": []}


def sparse_solve(seed) -> Workload:
    """Semisimple algebras in their natural basis through the
    separability solver and the block decomposition."""
    b = _Builder("sparse_solve", seed)
    b.alg("qc6", cyclic(6, Q))
    b.alg("qc7", cyclic(7, Q))
    b.alg("qc8", cyclic(8, Q))
    b.alg("qc9", cyclic(9, Q))
    b.alg("qc10", cyclic(10, Q))
    b.alg("qc12", cyclic(12, Q))
    b.alg("f5c8", cyclic(8, FP(5)))
    b.alg("f7c9", cyclic(9, FP(7)))
    b.alg("f3c10", cyclic(10, FP(3)))
    b.alg("m3q", matrix(3, Q))
    b.alg("m2f5", matrix(2, FP(5)))
    b.alg("qc3xm2", product([cyclic(3, Q), matrix(2, Q)]))
    b.alg("qr2c6", cyclic(6, QSQRT2))
    b.alg("qc4", cyclic(4, Q))
    for tag in ("qc6", "qc8", "qc9", "f5c8", "f7c9", "m3q", "qr2c6",
                "qc3xm2"):
        b.sepidem(tag)
    for tag in ("qc7", "f7c9", "m2f5", "qc3xm2"):
        b.septest(tag)
    for tag in ("qc12", "qc10", "f3c10", "m3q", "qc3xm2"):
        b.wedderburn(tag)
    # a semisimple splitting and tower keep every layer in the trace
    b.split_and_conjugate("qc4")
    b.product_tower("prod", [cyclic(2, Q), cyclic(3, Q)])
    return b.done()


def radical_tower(seed) -> Workload:
    """Non-semisimple algebras and towers: char-p radicals, splittings,
    conjugators, tower construction and the levelwise radical check."""
    b = _Builder("radical_tower", seed)
    b.alg("f2c8", cyclic(8, FP(2)))
    b.alg("f2c16", cyclic(16, FP(2)))
    b.alg("f3c9", cyclic(9, FP(3)))
    b.alg("t4q", triangular(4, Q))
    b.alg("trunc8q", truncated(8, Q))
    b.alg("triv_qc3", trivial_extension(cyclic(3, Q)))
    b.alg("f4c4", cyclic(4, F4))
    for tag in ("f2c8", "f2c16", "f3c9", "t4q", "trunc8q", "triv_qc3",
                "f4c4"):
        b.radical(tag)
    b.wedderburn("f2c8")            # exit 2: not semisimple
    for tag in ("f2c8", "triv_qc3"):
        b.split_and_conjugate(tag)
    b.tower("cyc2", ["--kind", "cyclicgroup", "--field", "F2", "--prime",
                     "2", "--depth", "3"], [2, 4, 8])
    b.tower("cyc3", ["--kind", "cyclicgroup", "--field", "F3", "--prime",
                     "3", "--depth", "3"], [3, 9, 27])
    b.tower("ps", ["--kind", "powerseries", "--field", "Q", "--depth",
                   "10"], list(range(1, 11)))
    b.files["loop.quiver"] = LOOP
    b.files["kron.quiver"] = KRONECKER
    b.tower("loop", ["--kind", "path", "--field", "Q", "--quiver",
                     "loop.quiver", "--depth", "6"], list(range(1, 7)))
    b.tower("kron", ["--kind", "path", "--field", "F2", "--quiver",
                     "kron.quiver", "--depth", "3"], [2, 4, 4])
    b.product_tower("prod", [cyclic(2, FP(2)), cyclic(4, FP(2)),
                               truncated(3, FP(2))])
    return b.done()


def dense_basis(seed) -> Workload:
    """Smaller members of both families under a random change of basis:
    the same layers fed dense, integral structure constants."""
    b = _Builder("dense_basis", seed)
    b.alg("qc5d", cyclic(5, Q), dense=True)
    b.alg("qc6d", cyclic(6, Q), dense=True)
    b.alg("qc8d", cyclic(8, Q), dense=True)
    b.alg("m2qd", matrix(2, Q), dense=True)
    b.alg("f5c6d", cyclic(6, FP(5)), dense=True)
    b.alg("f2c8d", cyclic(8, FP(2)), dense=True)
    b.alg("f2c16d", cyclic(16, FP(2)), dense=True)
    b.alg("t3qd", triangular(3, Q), dense=True)
    b.alg("trunc6qd", truncated(6, Q), dense=True)
    for tag in ("qc5d", "qc6d", "m2qd", "f5c6d"):
        b.sepidem(tag)
    for tag in ("qc5d", "m2qd", "f5c6d", "t3qd", "trunc6qd"):
        b.septest(tag)
    for tag in ("qc6d", "qc8d", "m2qd", "f5c6d", "t3qd", "f2c8d"):
        b.wedderburn(tag)
    for tag in ("qc5d", "qc6d", "m2qd", "f5c6d", "f2c8d", "f2c16d", "t3qd",
                "trunc6qd"):
        b.radical(tag)
    for tag in ("f2c8d", "t3qd", "trunc6qd"):
        b.split_and_conjugate(tag)
    b.product_tower("prod", [cyclic(3, Q), triangular(2, Q)], dense=True)
    return b.done()


MALFORMED = {
    "bad_json": '{"field": {"kind": "rationals"}, "dim": 1,',
    # a*a = b and a*b = a but b*a = 0, so (a*a)*a != a*(a*a)
    "non_assoc": json.dumps(
        {"field": Q, "dim": 3, "basis": ["1", "a", "b"],
         "unit": ["1", "0", "0"],
         "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"],
                  [1, 0, 1, "1"], [2, 0, 2, "1"], [1, 1, 2, "1"],
                  [1, 2, 1, "1"]]}),
    "no_unit": json.dumps(
        {"field": Q, "dim": 2, "basis": ["a", "b"],
         "mult": [[0, 0, 1, "1"]]}),
    "bad_scalar": json.dumps(
        {"field": Q, "dim": 1, "basis": ["1"], "unit": ["1"],
         "mult": [[0, 0, 0, "one"]]}),
    "bad_prime": json.dumps(
        {"field": FP(6), "dim": 1, "basis": ["1"], "unit": ["1"],
         "mult": [[0, 0, 0, "1"]]}),
    "short_basis": json.dumps(
        {"field": Q, "dim": 3, "basis": ["1"], "unit": ["1"],
         "mult": [[0, 0, 0, "1"]]}),
}


def cli_small(seed) -> Workload:
    """Many short jobs on algebras of dimension <= 6 covering every
    subcommand and field kind, negative answers and malformed files.
    Start-up, parsing, validation and rendering are most of each job."""
    b = _Builder("cli_small", seed)
    algs = {
        "qc2": cyclic(2, Q), "qc3": cyclic(3, Q), "qc4": cyclic(4, Q),
        "qc5": cyclic(5, Q), "qc6": cyclic(6, Q),
        "f2c2": cyclic(2, FP(2)), "f2c4": cyclic(4, FP(2)),
        "f3c3": cyclic(3, FP(3)), "f5c4": cyclic(4, FP(5)),
        "f3c6": cyclic(6, FP(3)), "f7c3": cyclic(3, FP(7)),
        "m2q": matrix(2, Q), "m2f3": matrix(2, FP(3)),
        "t2q": triangular(2, Q), "t3q": triangular(3, Q),
        "t2f2": triangular(2, FP(2)),
        "trunc3q": truncated(3, Q), "trunc4f2": truncated(4, FP(2)),
        "triv_qc2": trivial_extension(cyclic(2, Q)),
        "triv_f3c2": trivial_extension(cyclic(2, FP(3))),
        "qc2xm2": product([cyclic(2, Q), matrix(2, Q)]),
        "qr2c2": cyclic(2, QSQRT2), "qr2c3": cyclic(3, QSQRT2),
        "f4c3": cyclic(3, F4),
        "insep": inseparable_field(), "insep2": inseparable_square(),
    }
    for tag, A in algs.items():
        b.alg(tag, A)
    for tag, A in algs.items():
        if A.field["kind"] != "ratfunc":
            b.radical(tag)
    for tag in ("qc2", "qc5", "qc6", "f2c4", "f3c3", "f5c4", "f7c3", "m2q",
                "m2f3", "t2q", "triv_qc2", "qc2xm2"):
        b.wedderburn(tag)
    for tag in ("qc3", "qc4", "f2c2", "f3c6", "m2q", "t3q", "trunc3q",
                "triv_f3c2", "qc2xm2", "qr2c2", "f4c3", "t2f2", "insep",
                "insep2"):
        b.septest(tag)
    for tag in ("qc3", "qc6", "f3c3", "f5c4", "m2f3", "t2q", "qc2xm2",
                "qr2c3", "f4c3", "insep", "insep2"):
        b.sepidem(tag)
    b.nilpotent("insep", {"x": "1"}, None)
    b.nilpotent("insep2", {"x": "1", "y": "1"}, 2)
    b.nilpotent("insep2", {"1": "1"}, None)
    b.nilpotent("f2c4", {"1": "1", "g^1": "1"}, 4)
    b.nilpotent("f2c2", {"1": "1", "g^1": "1"}, 2)
    b.nilpotent("f3c3", {"1": "2", "g^1": "1"}, 3)
    b.nilpotent("trunc3q", {"x^1": "1"}, 3)
    b.nilpotent("trunc4f2", {"x^2": "1"}, 2)
    b.nilpotent("t3q", {"E12": "1", "E23": "1"}, 3)
    b.nilpotent("t3q", {"E11": "1"}, None)
    b.nilpotent("qc3", {"g^1": "1"}, None)
    for tag in ("f2c4", "t3q", "triv_qc2", "trunc4f2"):
        b.split_and_conjugate(tag)
    b.files["loop.quiver"] = LOOP
    b.files["kron.quiver"] = KRONECKER
    b.tower("ps", ["--kind", "powerseries", "--field", "Q", "--depth", "3"],
            [1, 2, 3])
    b.tower("cyc2", ["--kind", "cyclicgroup", "--field", "F2", "--prime",
                     "2", "--depth", "2"], [2, 4])
    b.tower("loop", ["--kind", "path", "--field", "F3", "--quiver",
                     "loop.quiver", "--depth", "4"], [1, 2, 3, 4])
    b.tower("kron", ["--kind", "path", "--field", "Q", "--quiver",
                     "kron.quiver", "--depth", "2"], [2, 4])
    b.product_tower("prod", [cyclic(2, Q), truncated(2, Q)])
    for tag, text in MALFORMED.items():
        b.malformed(tag, text)
    return b.done()


GENERATORS = {"sparse_solve": sparse_solve, "radical_tower": radical_tower,
              "dense_basis": dense_basis, "cli_small": cli_small}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)


def file_bytes(doc) -> bytes:
    """Canonical bytes of a generated file (text documents pass through)."""
    if isinstance(doc, str):
        return doc.encode()
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def write_inputs(w: Workload, directory) -> str:
    """Write every input file of the workload; returns a digest of the
    names and contents of all of them."""
    digest = hashlib.sha256()
    for fname, doc in sorted(w.files.items()):
        data = file_bytes(doc)
        with open(directory / fname, "wb") as fh:
            fh.write(data)
        digest.update(fname.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()
