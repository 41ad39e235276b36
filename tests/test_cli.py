import builtins
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from clirun import cli_env, run_cli
from pca import cli, fileio, malcev, separability, tower, wedderburn
from pca.algebra import (AlgHom, Ideal, direct_product, group_algebra,
                         make_algebra, tensor, triangular_algebra,
                         truncated_polynomial_algebra)
from pca.errors import NotAHom
from pca.fields import PrimeField, RationalFunctionField, Rationals
from pca.limits import Limits
from pca.linalg import Subspace
from pca.radical import RadicalResult
from pca.separability import SepIdempotent
from pca.tower import (Tower, kronecker_quiver, loop_quiver,
                       path_algebra_tower, power_series_tower)

# the submodule; ``pca.radical`` is the public function of that name
radical_module = importlib.import_module("pca.radical")

Q = Rationals()
F2 = PrimeField(2)
F2T = RationalFunctionField(2)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    t2 = triangular_algebra(2, Q)
    fileio.save_canonical(str(root / "t2q.alg"), fileio.algebra_to_doc(t2))
    E = make_algebra(
        F2T, ["1", "a"],
        [(0, 0, 0, F2T.one), (0, 1, 1, F2T.one), (1, 0, 1, F2T.one),
         (1, 1, 0, F2T.t)])
    fileio.save_canonical(str(root / "insep.alg"), fileio.algebra_to_doc(E))
    fileio.save_canonical(str(root / "ee.alg"),
                          fileio.algebra_to_doc(tensor(E, E)))
    fileio.save_canonical(str(root / "f2c2.alg"),
                          fileio.algebra_to_doc(group_algebra(2, F2)))
    fileio.save_canonical(str(root / "qc3.alg"),
                          fileio.algebra_to_doc(group_algebra(3, Q)))
    fileio.save_canonical(str(root / "loop.quiver"),
                          fileio.quiver_to_doc(loop_quiver()))
    return root


def test_radical_report(fixtures):
    res = run_cli("radical", "t2q.alg", "--json", cwd=fixtures)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["command"] == "radical"
    assert report["results"]["radical_dim"] == 1
    assert report["results"]["radical_basis"] == [["0", "1", "0"]]
    assert report["results"]["nilpotency_index"] == 2


def test_radical_oracle_flag(fixtures):
    res = run_cli("radical", "f2c2.alg", "--oracle", "--json", cwd=fixtures)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["results"]["method"] == "brute_force"
    assert report["results"]["radical_basis"] == [["1", "1"]]


def test_oracle_refuses_more_pairs_than_its_bound(tmp_path):
    # F_2[x]/(x^9) has 2^9 elements, and the oracle tests pairs of them:
    # 2^18 pairs is past its bound of 2^16, so it is refused at once
    # rather than left to run 2^18 rank computations
    fileio.save_canonical(str(tmp_path / "x9.alg"), fileio.algebra_to_doc(
        truncated_polynomial_algebra(F2, 9)))
    start = time.perf_counter()
    res = run_cli("radical", "x9.alg", "--oracle", cwd=tmp_path, timeout=10)
    took = time.perf_counter() - start
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith("pca: error:")
    assert len(res.stderr.splitlines()) == 1 and "2^18" in res.stderr
    assert took < 2


def test_wedderburn_over_a_large_prime(tmp_path):
    # v^p for the Frobenius fixed space takes log p products, not p - 1:
    # over F_(2^61 - 1), where 3 divides p - 1, C_3 splits into three lines
    fileio.save_canonical(str(tmp_path / "c3.alg"), fileio.algebra_to_doc(
        group_algebra(3, PrimeField(2 ** 61 - 1))))
    res = run_cli("wedderburn", "c3.alg", "--json", cwd=tmp_path, timeout=20)
    assert res.returncode == 0
    blocks = json.loads(res.stdout)["results"]["blocks"]
    assert [b["dim"] for b in blocks] == [1, 1, 1]


def test_septest_negative_exit_code(fixtures):
    res = run_cli("septest", "insep.alg", cwd=fixtures)
    assert res.returncode == 2
    assert "separable = false" in res.stdout


def test_septest_positive(fixtures):
    res = run_cli("septest", "qc3.alg", cwd=fixtures)
    assert res.returncode == 0


def test_septest_verified_block_names_the_check_that_ran(fixtures):
    res = run_cli("septest", "insep.alg", "--json", cwd=fixtures)
    assert res.returncode == 2
    assert json.loads(res.stdout)["verified"] == {"system_inconsistent": True}
    res = run_cli("septest", "qc3.alg", "--json", cwd=fixtures)
    assert res.returncode == 0
    assert json.loads(res.stdout)["verified"] == {"solution_substituted": True}


@pytest.mark.parametrize("field", ["Fx", "F", "F7(t"])
def test_malformed_field_descriptor_is_input_error(tmp_path, field):
    res = run_cli("tower", "build", "--kind", "powerseries", "--field", field,
                  "--depth", "2", "-o", "t.tower", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")


def test_missing_file_is_input_error(fixtures):
    res = run_cli("radical", "nosuchfile.alg", cwd=fixtures)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")


def test_malformed_file_is_input_error(fixtures, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("{not json")
    res = run_cli("radical", str(bad), cwd=fixtures)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")


def test_nilpotent_command(fixtures):
    res = run_cli("nilpotent", "ee.alg", "--element", "0,1,1,0",
                  "--json", cwd=fixtures)
    assert res.returncode == 0
    assert json.loads(res.stdout)["results"]["witness"] == 2
    res = run_cli("nilpotent", "ee.alg", "--element", "1,0,0,0", cwd=fixtures)
    assert res.returncode == 2


def test_wedderburn_reports(fixtures):
    res = run_cli("wedderburn", "qc3.alg", "--json", cwd=fixtures)
    assert res.returncode == 0
    blocks = json.loads(res.stdout)["results"]["blocks"]
    assert [b["dim"] for b in blocks] == [1, 2]
    res = run_cli("wedderburn", "t2q.alg", cwd=fixtures)
    assert res.returncode == 2


def test_sepidem_emits_sparse_tensor(fixtures):
    res = run_cli("sepidem", "qc3.alg", "--json", cwd=fixtures)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["results"]["separable"] is True
    assert report["results"]["tensor_coeffs"]
    res = run_cli("sepidem", "insep.alg", cwd=fixtures)
    assert res.returncode == 2


def test_split_and_conjugate_flow(fixtures):
    r1 = run_cli("split", "t2q.alg", "--seed", "1", "-o", "s1.json",
                 cwd=fixtures)
    r2 = run_cli("split", "t2q.alg", "--seed", "2", "-o", "s2.json",
                 cwd=fixtures)
    assert r1.returncode == 0 and r2.returncode == 0
    res = run_cli("conjugate", "t2q.alg", "--s1", "s1.json", "--s2", "s2.json",
                  "--json", cwd=fixtures)
    assert res.returncode == 0
    omega = json.loads(res.stdout)["results"]["omega"]
    assert len(omega) == 3


def test_tower_build_and_check(fixtures):
    res = run_cli("tower", "build", "--kind", "path", "--field", "Q",
                  "--depth", "3", "--quiver", "loop.quiver",
                  "-o", "loop.tower", cwd=fixtures)
    assert res.returncode == 0
    res = run_cli("tower", "check", "loop.tower", "--json", cwd=fixtures)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["results"]["radical_onto_radical"] is True
    assert report["results"]["arrow_ideal_is_radical"] is True
    assert report["results"]["level_dims"] == [1, 2, 3]


def test_tower_build_cyclicgroup_needs_prime(fixtures):
    res = run_cli("tower", "build", "--kind", "cyclicgroup", "--field", "F2",
                  "--depth", "2", "-o", "cg.tower", cwd=fixtures)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    res = run_cli("tower", "build", "--kind", "cyclicgroup", "--field", "F2",
                  "--depth", "2", "--prime", "2", "-o", "cg.tower",
                  cwd=fixtures)
    assert res.returncode == 0
    res = run_cli("tower", "check", "cg.tower", cwd=fixtures)
    assert res.returncode == 0


@pytest.mark.parametrize("argv", [
    ("radical", "t2q.alg"),
    ("radical", "t2q.alg", "--json"),
    ("wedderburn", "qc3.alg", "--json"),
    ("septest", "insep.alg",),
    ("split", "t2q.alg", "--seed", "3", "--json"),
])
def test_reports_are_byte_identical(fixtures, argv):
    expected_code = 2 if argv == ("septest", "insep.alg") else 0
    first = run_cli(*argv, cwd=fixtures)
    second = run_cli(*argv, cwd=fixtures)
    for res in (first, second):
        assert res.returncode == expected_code, res.stderr
        assert res.stdout
    assert first.stdout == second.stdout


BUILD = ("tower", "build", "--kind", "powerseries", "--field", "Q",
         "--depth", "2", "-o", "t.tower")


def _without(argv, option):
    """``argv`` less ``option`` and its value."""
    i = argv.index(option)
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("argv", [
    ("radical",),
    ("radical", "t2q.alg", "--bogus"),
    ("radical", "t2q.alg", "--no-verify"),
    # no command, an unknown one, and tower without build or check
    (), ("bogus", "t2q.alg"), ("tower",), ("tower", "bogus"),
    # a flag given a value, an option missing its value, and the prefix
    # of an option name, which is not an option
    ("radical", "t2q.alg", "--oracle=1"),
    ("radical", "t2q.alg", "--seed"),
    ("nilpotent", "t2q.alg", "--element", "--json"),
    ("radical", "f2c2.alg", "--orac"),
    # ints that do not parse, and a kind that is not a choice
    ("radical", "t2q.alg", "--seed", "x"),
    ("radical", "t2q.alg", "--seed=1.5"),
    BUILD[:7] + ("two",) + BUILD[8:],
    BUILD[:3] + ("cyclicgroup",) + BUILD[4:] + ("--prime", "p"),
    BUILD[:3] + ("bogus",) + BUILD[4:],
    # each required option missing
    ("nilpotent", "t2q.alg"),
    ("conjugate", "t2q.alg", "--s2", "s.json"),
    ("conjugate", "t2q.alg", "--s1", "s.json"),
    _without(BUILD, "--kind"), _without(BUILD, "--field"),
    _without(BUILD, "--depth"), _without(BUILD, "-o"),
    # a missing file and an extra one
    ("tower", "check"),
    ("radical", "t2q.alg", "qc3.alg"),
    BUILD + ("t2q.alg",),
])
def test_usage_errors_are_input_errors(fixtures, argv):
    res = run_cli(*argv, cwd=fixtures)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert "Traceback" not in res.stderr
    assert not res.stdout
    assert not (fixtures / "t.tower").exists()


@pytest.mark.parametrize("argv", [
    ("--help",), ("-h",), ("radical", "--help"),
    ("tower", "build", "--help"), ("tower", "check", "t.tower", "-h"),
])
def test_help_prints_the_usage(argv):
    res = run_cli(*argv)
    assert res.returncode == 0
    assert not res.stderr
    assert res.stdout.startswith("usage: pca")
    for command in ("radical", "wedderburn", "septest", "sepidem",
                    "nilpotent", "split", "conjugate", "tower build",
                    "tower check"):
        assert f"pca {command} " in res.stdout


@pytest.mark.parametrize("argvs", [
    [("split", "t2q.alg", "--seed", "3", "--json", "-o", "out"),
     ("split", "t2q.alg", "--seed=3", "--json", "--output=out"),
     ("split", "--json", "-o", "out", "--seed", "3", "t2q.alg")],
    [("radical", "f2c2.alg", "--oracle", "--seed", "-2"),
     ("radical", "--seed=-2", "--oracle", "f2c2.alg")],
    [("tower", "build", "--kind", "product", "--field", "Q", "--depth", "2",
      "--factor", "t2q.alg", "--factor", "qc3.alg", "-o", "out", "--json"),
     ("tower", "build", "--factor=t2q.alg", "--json", "--depth=2", "-o",
      "out", "--kind=product", "--factor", "qc3.alg", "--field", "Q")],
], ids=["split", "radical", "product_tower"])
def test_option_spellings_give_identical_reports(fixtures, tmp_path, argvs):
    for name in ("t2q.alg", "qc3.alg", "f2c2.alg"):
        (tmp_path / name).write_bytes((fixtures / name).read_bytes())
    outputs = set()
    for argv in argvs:
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        out = tmp_path / "out"
        outputs.add((res.stdout, out.read_bytes() if out.exists() else b""))
        out.unlink(missing_ok=True)
    assert len(outputs) == 1
    stdout, _ = outputs.pop()
    if argvs[0][0] == "tower":
        # both factors, in order: T_2(Q) then QC_3
        assert json.loads(stdout)["results"]["level_dims"] == [3, 6]


def test_tower_with_non_multiplicative_map_is_rejected(fixtures):
    doc = fileio.tower_to_doc(power_series_tower(Q, 2))
    # x -> 1 keeps the map unital and surjective, but x*x = 0 maps to 0 != 1
    doc["maps"][0] = [["1", "1"]]
    with pytest.raises(NotAHom):
        fileio.tower_from_doc(doc)
    fileio.save_canonical(str(fixtures / "nonhom.tower"), doc)
    res = run_cli("tower", "check", "nonhom.tower", cwd=fixtures)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert not res.stdout


NON_ASSOCIATIVE = {
    "field": {"kind": "rationals"}, "dim": 3, "basis": ["1", "a", "b"],
    "unit": ["1", "0", "0"],
    "mult": [[0, j, j, "1"] for j in range(3)] +
            [[i, 0, i, "1"] for i in (1, 2)] +
            [[1, 1, 2, "1"], [2, 1, 1, "1"]]}


def _non_multiplicative_tower():
    doc = fileio.tower_to_doc(power_series_tower(Q, 2))
    doc["maps"][0] = [["1", "1"]]
    return doc


@pytest.mark.parametrize("argv,name,doc,line", [
    # (e1 e1) e1 = e2 e1 = e1, but e1 (e1 e1) = e1 e2 = 0
    (("radical",), "a.alg", NON_ASSOCIATIVE,
     "(e1*e1)*e1 != e1*(e1*e1)"),
    (("tower", "check"), "t.tower", _non_multiplicative_tower(),
     "phi(e1*e1) != phi(e1)*phi(e1)"),
], ids=["not_associative", "not_a_hom"])
def test_witness_error_prints_its_message_alone(tmp_path, argv, name, doc,
                                                line):
    # the witness rides in the exception's args, not on the error line
    fileio.save_canonical(str(tmp_path / name), doc)
    res = run_cli(*argv, name, cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr == f"pca: error: {line}\n"
    assert not res.stdout


def test_tower_with_non_surjective_map_is_rejected(tmp_path):
    # (a, b) -> (a, a) on Q x Q is unital and multiplicative, not onto
    qxq = {"field": {"kind": "rationals"}, "dim": 2, "basis": ["a", "b"],
           "unit": ["1", "1"], "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}
    doc = {"kind": "custom", "meta": {}, "levels": [qxq, qxq],
           "maps": [[["1", "0"], ["1", "0"]]]}
    fileio.save_canonical(str(tmp_path / "onto.tower"), doc)
    res = run_cli("tower", "check", "onto.tower", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert "not surjective" in res.stderr
    assert not res.stdout


QXQ = {"field": {"kind": "rationals"}, "dim": 2, "basis": ["a", "b"],
       "unit": ["1", "1"], "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]]}
# Q x Q[x]/(x^2): the radical is spanned by x, and A/J is Q x Q
QXD = {"field": {"kind": "rationals"}, "dim": 3, "basis": ["e", "f", "x"],
       "unit": ["1", "1", "0"],
       "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"], [1, 2, 2, "1"],
                [2, 1, 2, "1"]]}


@pytest.mark.parametrize("alg,good,bad", [
    (QXQ, [["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]),
    (QXD, [["1", "0"], ["0", "1"], ["0", "0"]],
     [["1", "0"], ["0", "1"], ["1", "1"]]),
    (QXD, [["1", "0"], ["0", "1"], ["0", "0"]],
     [["1", "0"], ["0", "1"], ["1", "-1"]]),
    (QXQ, [["1", "0"], ["0", "1"]], [1, 2]),
], ids=["not_a_section", "not_unital", "not_multiplicative", "malformed"])
def test_hostile_splitting_is_input_error(tmp_path, alg, good, bad):
    fileio.save_canonical(str(tmp_path / "a.alg"), alg)
    for name, section in (("good.json", good), ("bad.json", bad)):
        fileio.save_canonical(str(tmp_path / name),
                              {"kind": "splitting", "section": section})
    res = run_cli("conjugate", "a.alg", "--s1", "good.json", "--s2",
                  "good.json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli("conjugate", "a.alg", "--s1", "good.json", "--s2",
                  "bad.json", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert not res.stdout


def _sha(path):
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _zero_radical(A):
    zero = Ideal(A, Subspace.zero(A.field, A.dim))
    return RadicalResult(zero, [zero], 0, "trace_form")


def test_oracle_disagreement_raises(fixtures, monkeypatch, capsys):
    monkeypatch.chdir(fixtures)
    monkeypatch.setattr(radical_module, "radical", _zero_radical)
    assert cli.main(["radical", "f2c2.alg", "--oracle", "--seed", "7"]) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err == ("pca: internal error: oracle and main method disagree on "
                   f"the radical (seed 7, input {_sha('f2c2.alg')})\n")


# argv, the exit code and the input_digest the report must carry; every
# file the job reads is opened exactly once
OPEN_CASES = {
    "radical": (["radical", "t3q.alg"], 0, lambda: _sha("t3q.alg")),
    "tower check": (["tower", "check", "ps.tower"], 0,
                    lambda: _sha("ps.tower")),
    "conjugate": (
        ["conjugate", "t3q.alg", "--s1", "s1.json", "--s2", "s2.json"], 0,
        lambda: {"algebra": _sha("t3q.alg"), "s1": _sha("s1.json"),
                 "s2": _sha("s2.json")}),
    "tower build product": (
        ["tower", "build", "--kind", "product", "--field", "Q", "--depth",
         "2", "--factor", "t3q.alg", "--factor", "qc3.alg", "-o", "p.tower"],
        0, lambda: {"t3q.alg": _sha("t3q.alg"), "qc3.alg": _sha("qc3.alg")}),
    "tower build path": (
        ["tower", "build", "--kind", "path", "--field", "Q", "--depth", "2",
         "--quiver", "loop.quiver", "-o", "q.tower"], 0,
        lambda: _sha("loop.quiver")),
    "oracle exit 3": (["radical", "f2c2.alg", "--oracle"], 3,
                      lambda: _sha("f2c2.alg")),
}


@pytest.mark.parametrize("case", sorted(OPEN_CASES))
def test_each_input_is_opened_once(tmp_path, monkeypatch, capsys, case):
    argv, code, digest = OPEN_CASES[case]
    monkeypatch.chdir(tmp_path)
    fileio.save_canonical("t3q.alg",
                          fileio.algebra_to_doc(triangular_algebra(3, Q)))
    fileio.save_canonical("qc3.alg",
                          fileio.algebra_to_doc(group_algebra(3, Q)))
    fileio.save_canonical("f2c2.alg",
                          fileio.algebra_to_doc(group_algebra(2, F2)))
    fileio.save_canonical("loop.quiver", fileio.quiver_to_doc(loop_quiver()))
    fileio.save_canonical("ps.tower",
                          fileio.tower_to_doc(power_series_tower(Q, 3)))
    for seed, out in (("1", "s1.json"), ("2", "s2.json")):
        assert cli.main(["split", "t3q.alg", "--seed", seed, "-o", out]) == 0
    capsys.readouterr()
    if code == 3:
        monkeypatch.setattr(radical_module, "radical", _zero_radical)
    inputs = [w for w in argv if w.endswith((".alg", ".json", ".tower",
                                            ".quiver"))
              and w not in ("p.tower", "q.tower")]
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert cli.main([*argv, "--json"]) == code
    monkeypatch.setattr(builtins, "open", real_open)
    assert {p: opened.count(p) for p in inputs} == {p: 1 for p in inputs}
    out, err = capsys.readouterr()
    if code == 3:
        assert err.endswith(f", input {digest()})\n")
    else:
        assert json.loads(out)["input_digest"] == digest()


def _zero_map_tower(K, depth):
    # the power-series tower with a connecting map that is not surjective
    T = power_series_tower(K, depth)
    h = T.maps[0]
    return Tower(T.levels, [AlgHom(h.source, h.target, {})], T.kind, T.meta)


def _sep_idempotent_without_a_pair(A):
    # m(p) is no longer 1, so the closed form misses the defect
    p = separability.sep_idempotent(A)
    return SepIdempotent(A, p.tensor_coeffs, p.pairs[1:])


# (argv, module, name, replacement) for one injected program fault each
INTERNAL_FAULTS = {
    "split_coboundary_unsolvable": (
        ("split", "t3q.alg"), malcev, "sep_idempotent",
        _sep_idempotent_without_a_pair),
    "split_quotient_not_separable": (
        ("split", "t3q.alg"), malcev, "sep_idempotent", lambda A: None),
    "split_layer_not_multiplicative": (
        ("split", "t3q.alg"), malcev, "_layer_correction",
        lambda head, fine, layer, tau, pairs:
        [fine.zero_element()] * head.dim),
    "conjugate_not_inner": (
        ("conjugate", "t3q.alg", "--s1", "s1.json", "--s2", "s2.json"),
        malcev, "inner_derivation", lambda *args: None),
    "wedderburn_wrong_reassembly": (
        ("wedderburn", "qc3.alg"), wedderburn, "direct_product",
        lambda blocks: direct_product(blocks[::-1])),
    "wedderburn_not_orthogonal": (
        ("wedderburn", "qc3.alg"), wedderburn, "pmod",
        lambda f, g, K: (K.one,)),
    "tower_build_not_surjective": (
        ("tower", "build", "--kind", "powerseries", "--field", "Q",
         "--depth", "2", "-o", "t.tower"), tower, "power_series_tower",
        _zero_map_tower),
}


def test_memory_error_is_one_error_line(fixtures, monkeypatch, capsys):
    # a command whose algorithm runs out of memory ends like any other
    # unusable input: one ``pca: error:`` line and exit 1, no traceback
    def exhausted(A):
        raise MemoryError

    monkeypatch.chdir(fixtures)
    monkeypatch.setattr(separability, "sep_idempotent", exhausted)
    assert cli.main(["sepidem", "qc3.alg"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert err == "pca: error: out of memory\n"


@pytest.mark.parametrize("case", sorted(INTERNAL_FAULTS))
def test_internal_failures_exit_3(tmp_path, monkeypatch, capsys, case):
    argv, module, name, fault = INTERNAL_FAULTS[case]
    monkeypatch.chdir(tmp_path)
    fileio.save_canonical("t3q.alg",
                          fileio.algebra_to_doc(triangular_algebra(3, Q)))
    fileio.save_canonical("qc3.alg",
                          fileio.algebra_to_doc(group_algebra(3, Q)))
    for seed, out in (("1", "s1.json"), ("2", "s2.json")):
        assert cli.main(["split", "t3q.alg", "--seed", seed, "-o", out]) == 0
    capsys.readouterr()
    monkeypatch.setattr(module, name, fault)
    assert cli.main(list(argv)) == 3
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("pca: internal error: ")
    assert err.count("\n") == 1 and err.endswith(")\n")
    assert not (tmp_path / "t.tower").exists()


GOOD_TOWER = fileio.tower_to_doc(power_series_tower(Q, 2))


@pytest.mark.parametrize("argv,name,doc", [
    (("radical",), "num.alg", dict(QXQ, mult=[[0, 0, 0, 1]])),
    (("tower", "check"), "num.tower", dict(GOOD_TOWER, maps=[[[1]]])),
], ids=["algebra", "tower"])
def test_non_string_scalar_is_input_error(tmp_path, argv, name, doc):
    fileio.save_canonical(str(tmp_path / name), doc)
    res = run_cli(*argv, name, cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert "Traceback" not in res.stderr
    assert not res.stdout


@pytest.mark.parametrize("doc", [
    dict(QXQ, field=5),
    dict(QXQ, field={"kind": "extension", "base": 5,
                     "minpoly": ["-2", "0", "1"]}),
    dict(QXQ, mult=[[0, 0, 0, "1"], [1, 1, 0.5, "1"]]),
    dict(QXQ, mult=[[0, 0, 0, "1"], [1, True, 1, "1"]]),
], ids=["field_number", "extension_base_number", "index_fraction",
        "index_true"])
def test_malformed_algebra_document_is_input_error(tmp_path, doc):
    fileio.save_canonical(str(tmp_path / "a.alg"), doc)
    res = run_cli("radical", "a.alg", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert not res.stdout


Q1 = {"field": {"kind": "rationals"}, "dim": 1, "basis": ["1"],
      "unit": ["1"], "mult": [[0, 0, 0, "1"]]}


@pytest.mark.parametrize("doc", [
    dict(Q1, dim=True),
    dict(Q1, dim=1.0),
    dict(Q1, basis="1"),
], ids=["dim_true", "dim_float", "basis_string"])
def test_malformed_dim_or_basis_is_input_error(tmp_path, doc):
    fileio.save_canonical(str(tmp_path / "a.alg"), doc)
    res = run_cli("radical", "a.alg", cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert not res.stdout


def _loop_quiver_doc(coeffs, vertex="v"):
    """One loop x at one vertex and the relation sum c * x*x."""
    return {"vertices": [vertex],
            "arrows": [{"name": "x", "src": "v", "tgt": "v"}],
            "relations": [{"terms": [{"coeff": c, "path": ["x", "x"]}
                                     for c in coeffs]}]}


PATH_TOWER = fileio.tower_to_doc(path_algebra_tower(loop_quiver(), Q, 2))


def _with_quiver_meta(quiver):
    return dict(PATH_TOWER, meta=dict(PATH_TOWER["meta"], quiver=quiver))


def test_quiver_text_coefficients_build(tmp_path):
    # 1/10 + 2/10 - 3/10 = 0, so the relation is empty and x*x survives
    fileio.save_canonical(str(tmp_path / "q.quiver"),
                          _loop_quiver_doc(["1/10", "2/10", "-3/10"]))
    res = run_cli("tower", "build", "--kind", "path", "--field", "Q",
                  "--depth", "3", "--quiver", "q.quiver", "-o", "t.tower",
                  "--json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["results"]["level_dims"] == [1, 2, 3]


@pytest.mark.parametrize("argv,name,doc", [
    (("tower", "build", "--kind", "path", "--field", "Q", "--depth", "3",
      "-o", "t.tower", "--quiver"), "q.quiver",
     _loop_quiver_doc([0.1, 0.2, -0.3])),
    (("tower", "build", "--kind", "path", "--field", "Q", "--depth", "3",
      "-o", "t.tower", "--quiver"), "q.quiver",
     dict(_loop_quiver_doc(["1"]), vertices=[["a"]], arrows=[],
          relations=[])),
    (("tower", "check"), "t.tower",
     _with_quiver_meta(dict(PATH_TOWER["meta"]["quiver"],
                            vertices=[["v"]]))),
    (("tower", "check"), "t.tower", dict(PATH_TOWER, meta={"quiver": 5})),
], ids=["float_coefficients", "list_vertex", "meta_list_vertex",
        "meta_quiver_number"])
def test_malformed_quiver_data_is_input_error(tmp_path, argv, name, doc):
    fileio.save_canonical(str(tmp_path / name), doc)
    res = run_cli(*argv, name, cwd=tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert "Traceback" not in res.stderr
    assert not res.stdout


def c2_over(field_doc):
    return {"field": field_doc, "dim": 2, "basis": ["1", "g"],
            "unit": ["1", "0"],
            "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                     [1, 1, 0, "1"]]}


def test_large_prime_field(tmp_path):
    big = {"kind": "primefield", "p": 2 ** 61 - 1}
    fileio.save_canonical(str(tmp_path / "big.alg"), c2_over(big))
    res = run_cli("radical", "big.alg", "--json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["results"]["radical_dim"] == 0
    huge = {"kind": "primefield", "p": 2 ** 89 - 1}
    fileio.save_canonical(str(tmp_path / "huge.alg"), c2_over(huge))
    for argv in (("radical", "huge.alg"),
                 ("tower", "build", "--kind", "powerseries", "--field",
                  f"F{2 ** 89 - 1}", "--depth", "2", "-o", "t.tower")):
        res = run_cli(*argv, cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("pca: error:")
        assert "Traceback" not in res.stderr
        assert not res.stdout


def test_conjugate_builds_the_quotient_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fileio.save_canonical("t3q.alg",
                          fileio.algebra_to_doc(triangular_algebra(3, Q)))
    for seed, name in (("1", "s1.json"), ("2", "s2.json")):
        assert cli.main(["split", "t3q.alg", "--seed", seed, "-o", name]) == 0
    calls = []
    real_quotient = malcev.quotient

    def counting_quotient(*args):
        calls.append(args)
        return real_quotient(*args)

    monkeypatch.setattr(malcev, "quotient", counting_quotient)
    assert cli.main(["conjugate", "t3q.alg", "--s1", "s1.json",
                     "--s2", "s2.json"]) == 0
    assert len(calls) == 1


# -- input budgets ------------------------------------------------------------

def _cap_memory():
    # a refusal must not need memory; a build that starts is cut off here
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _two_loops():
    return {"vertices": ["v"],
            "arrows": [{"name": "x", "src": "v", "tgt": "v"},
                       {"name": "y", "src": "v", "tgt": "v"}]}


def _oversized_algebra():
    n = Limits.dim + 1
    return {"field": {"kind": "rationals"}, "dim": n,
            "basis": [f"e{i}" for i in range(n)],
            "unit": ["1"] + ["0"] * (n - 1), "mult": []}


def _high_degree_algebra():
    # t^99999999 as a dense list would need about 800 MB
    return {"field": {"kind": "ratfunc", "p": 2}, "dim": 1, "basis": ["e"],
            "unit": ["1"], "mult": [[0, 0, 0, "t^99999999"]]}


def _deep_tower():
    n = Limits.depth + 1
    point = {"field": {"kind": "rationals"}, "dim": 1, "basis": ["e"],
             "unit": ["1"], "mult": [[0, 0, 0, "1"]]}
    return {"kind": "custom", "levels": [point] * n,
            "maps": [[["1"]]] * (n - 1)}


@pytest.mark.parametrize("argv", [
    ("tower", "build", "--kind", "cyclicgroup", "--field", "F3", "--prime",
     "3", "--depth", "12", "-o", "t.tower"),
    ("tower", "build", "--kind", "powerseries", "--field", "Q", "--depth",
     "100000", "-o", "t.tower"),
    ("tower", "build", "--kind", "path", "--field", "Q", "--quiver",
     "kron.quiver", "--depth", "100000", "-o", "t.tower"),
    # 2^0 + ... + 2^9 = 1023 paths of length < 10 at the top free level
    ("tower", "build", "--kind", "path", "--field", "Q", "--quiver",
     "loops.quiver", "--depth", "10", "-o", "t.tower"),
    ("radical", "big.alg"),
    ("septest", "deg.alg"),
    ("tower", "check", "deep.tower"),
], ids=["cyclic_dim", "powerseries_depth", "kronecker_depth", "path_dim",
        "algebra_file_dim", "ratfunc_degree", "tower_file_depth"])
def test_oversized_input_is_refused(tmp_path, argv):
    fileio.save_canonical(str(tmp_path / "kron.quiver"),
                          fileio.quiver_to_doc(kronecker_quiver()))
    fileio.save_canonical(str(tmp_path / "loops.quiver"), _two_loops())
    fileio.save_canonical(str(tmp_path / "big.alg"), _oversized_algebra())
    fileio.save_canonical(str(tmp_path / "deg.alg"), _high_degree_algebra())
    fileio.save_canonical(str(tmp_path / "deep.tower"), _deep_tower())
    res = run_cli(*argv, cwd=tmp_path, timeout=20, preexec_fn=_cap_memory)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert "above the limit" in res.stderr
    assert "Traceback" not in res.stderr
    assert not res.stdout
    assert not (tmp_path / "t.tower").exists()


def test_cold_radical_of_f2c64_is_fast(tmp_path):
    # the char-p chain on F_2 C_64 makes 6 levels of at most 64 trace powers
    fileio.save_canonical(str(tmp_path / "f2c64.alg"),
                          fileio.algebra_to_doc(group_algebra(64, F2)))
    res = run_cli("radical", "f2c64.alg", "--json", cwd=tmp_path,
                  timeout=30, preexec_fn=_cap_memory)
    assert res.returncode == 0
    results = json.loads(res.stdout)["results"]
    assert results["radical_dim"] == 63
    assert results["nilpotency_index"] == 64


def test_split_of_m8_dual_numbers_fits_in_memory(tmp_path):
    # M_8(Q) (x) Q[x]/(x^2), dimension 128: its one layer has 64 * 64
    # unknowns, whose coboundary system in dense rows (262144 of 4096
    # entries) ran out of memory under this cap
    path = Path(__file__).parent / "large" / "m8q_dual.alg"
    res = run_cli("split", str(path), "--json", cwd=tmp_path, timeout=60,
                  preexec_fn=_cap_memory)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["results"]["quotient_dim"] == 64
    assert report["results"]["radical_dim"] == 64
    assert all(report["verified"].values())


# Q scalars outside README's grammar ("a" or "a/b"): exponents, decimals
# and underscores, in the structure constants and the unit of a 1-dim
# algebra over Q and over Q(sqrt 2).  Each table is a valid algebra if the
# scalars are read as Python's Fraction reads them.
HOSTILE_SCALARS = sorted((Path(__file__).parent / "hostile").glob("*.alg"))


@pytest.mark.parametrize("command", ["radical", "sepidem"])
@pytest.mark.parametrize("path", HOSTILE_SCALARS, ids=lambda p: p.stem)
def test_hostile_scalar_is_input_error(tmp_path, path, command):
    res = run_cli(command, str(path), cwd=tmp_path, timeout=20,
                  preexec_fn=_cap_memory)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert "Traceback" not in res.stderr
    assert not res.stdout


def test_result_past_the_digit_limit_is_input_error(tmp_path):
    # e*e = 10^4000 e, so the unit is 10^-4000 e and the separability
    # idempotent is 10^-8000 e (x) e: more digits than str() of an int
    # writes by default
    big = "1" + "0" * 4000
    doc = {"field": {"kind": "rationals"}, "dim": 1, "basis": ["e"],
           "unit": [f"1/{big}"], "mult": [[0, 0, 0, big]]}
    fileio.save_canonical(str(tmp_path / "big.alg"), doc)
    res = run_cli("radical", "big.alg", cwd=tmp_path, timeout=20)
    assert res.returncode == 0, res.stderr
    res = run_cli("sepidem", "big.alg", cwd=tmp_path, timeout=20)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert "Traceback" not in res.stderr
    assert not res.stdout


# -- the process entry --------------------------------------------------------

@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["fails_at_write", "fails_at_flush"])
def test_closed_stdout_is_one_error_line(fixtures, unbuffered):
    # unbuffered, the report's write in main raises; buffered, the flush
    # after main does
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)              # the reader is gone before the report
    try:
        proc = subprocess.Popen([sys.executable, "-m", "pca", "radical",
                                 "t2q.alg"], cwd=fixtures, env=env,
                                stdout=write, stderr=subprocess.PIPE,
                                text=True)
    finally:
        os.close(write)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.startswith("pca: error:")
    assert "Traceback" not in err and "Exception ignored" not in err


RUN_CASES = [(("radical", "t2q.alg", "--json"), 0),
             (("radical", "missing.alg"), 1),
             (("septest", "insep.alg", "--json"), 2)]


@pytest.mark.parametrize("argv,code", RUN_CASES, ids=["0", "1", "2"])
def test_main_never_freezes(fixtures, monkeypatch, argv, code):
    monkeypatch.chdir(fixtures)
    frozen = gc.get_freeze_count()
    assert cli.main(list(argv)) == code
    assert gc.get_freeze_count() == frozen


class _Recorded(io.StringIO):
    """A text stream that logs each write and flush, as ``<name>.write``
    and ``<name>.flush``, to a list it shares."""

    def __init__(self, name, events):
        super().__init__()
        self.name, self.events = name, events

    def write(self, text):
        self.events.append(f"{self.name}.write")
        return super().write(text)

    def flush(self):
        self.events.append(f"{self.name}.flush")
        super().flush()


@pytest.mark.parametrize("argv,code", RUN_CASES, ids=["0", "1", "2"])
def test_run_freezes_once_after_the_report(fixtures, monkeypatch, argv,
                                           code):
    monkeypatch.chdir(fixtures)
    events = []
    out, err = _Recorded("out", events), _Recorded("err", events)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(gc, "freeze", lambda: events.append(
        ("freeze", out.getvalue(), err.getvalue())))
    assert cli.run(list(argv)) == code
    freezes = [e for e in events if e[0] == "freeze"]
    assert len(freezes) == 1
    assert events[-2:] == ["out.flush", freezes[0]]
    _, report, error = freezes[0]
    assert (report, error) == (out.getvalue(), err.getvalue())
    if code == 1:
        assert not report and error.startswith("pca: error:")
    else:
        assert json.loads(report)["command"] == argv[0] and not error
