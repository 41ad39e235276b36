import json

import pytest

from clirun import run_cli
from pca import cli, fileio
from pca.algebra import (Ideal, group_algebra, make_algebra, tensor,
                         triangular_algebra)
from pca.errors import InternalVerificationFailed, NotAHom
from pca.fields import PrimeField, RationalFunctionField, Rationals
from pca.linalg import Subspace
from pca.radical import RadicalResult
from pca.tower import loop_quiver, power_series_tower

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


def test_septest_negative_exit_code(fixtures):
    res = run_cli("septest", "insep.alg", cwd=fixtures)
    assert res.returncode == 2
    assert "separable = false" in res.stdout


def test_septest_positive(fixtures):
    res = run_cli("septest", "qc3.alg", cwd=fixtures)
    assert res.returncode == 0


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


@pytest.mark.parametrize("argv", [
    ("radical",),
    ("radical", "t2q.alg", "--bogus"),
    ("radical", "t2q.alg", "--no-verify"),
])
def test_usage_errors_are_input_errors(fixtures, argv):
    res = run_cli(*argv, cwd=fixtures)
    assert res.returncode == 1
    assert res.stderr.startswith("pca: error:")
    assert not res.stdout


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


def test_oracle_disagreement_raises(fixtures, monkeypatch):
    def zero_radical(A):
        zero = Ideal(A, Subspace.zero(A.field, A.dim))
        return RadicalResult(zero, [zero], 0, "trace_form")

    monkeypatch.chdir(fixtures)
    monkeypatch.setattr(cli, "radical", zero_radical)
    with pytest.raises(InternalVerificationFailed):
        cli.main(["radical", "f2c2.alg", "--oracle"])
