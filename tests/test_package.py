"""The package's public names and what a command imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import pca
from clirun import cli_env
from pca import fileio
from pca.algebra import (group_algebra, matrix_algebra, triangular_algebra,
                          truncated_polynomial_algebra)
from pca.fields import PrimeField, Rationals

# modules that ``pca radical`` over F_2 must not load: the record classes
# are plain classes, each command imports only the algorithms it runs, the
# command line is read without argparse (and its gettext and locale), F_p
# work needs neither ``fractions`` (nor its decimal) nor polynomials, and
# the input digest comes from the interpreter's own SHA-256, not from
# hashlib (with OpenSSL and blake2), and documents are read and written by
# the C accelerator _json, not by json (whose import compiles regexes)
NOT_LOADED = ("dataclasses", "inspect", "pca.wedderburn", "pca.separability",
              "pca.malcev", "pca.tower", "argparse", "gettext", "locale",
              "fractions", "decimal", "pca.poly", "hashlib", "_hashlib",
              "_blake2", "json", "json.decoder", "json.encoder",
              "json.scanner")

# the probe itself imports only sys, so every other module is the job's
PROBE = """
import sys
from pca import cli
code = cli.main([*sys.argv[1:], "a.alg", "--json"])
print(repr([code, sorted(sys.modules)]))
"""


def _modules_after(tmp_path, command, algebra, flags=()):
    """The modules loaded by a process, started with the interpreter
    ``flags``, that runs ``pca command`` to a successful report on
    ``algebra``."""
    fileio.save_canonical(str(tmp_path / "a.alg"),
                          fileio.algebra_to_doc(algebra))
    res = subprocess.run([sys.executable, *flags, "-c", PROBE, command],
                         cwd=tmp_path, env=cli_env(), capture_output=True,
                         text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    code, modules = ast.literal_eval(res.stdout.splitlines()[-1])
    assert code == 0
    return modules


def test_radical_command_loads_only_what_it_runs(tmp_path):
    modules = _modules_after(tmp_path, "radical",
                             group_algebra(4, PrimeField(2)))
    assert "pca.radical" in modules
    assert [m for m in NOT_LOADED if m in modules] == []


def test_integral_rationals_do_not_load_fractions(tmp_path):
    # the separability idempotent of M_2(Q) is sum_j e_j1 (x) e_1j: every
    # scalar from the file to the report is an integer
    modules = _modules_after(tmp_path, "sepidem",
                             matrix_algebra(2, Rationals()))
    assert "pca.separability" in modules
    assert [m for m in ("fractions", "decimal", "numbers") if m in modules] \
        == []


@pytest.mark.parametrize("algebra", [
    triangular_algebra(4, Rationals()),
    truncated_polynomial_algebra(Rationals(), 8)], ids=["T4Q", "Qx8"])
def test_radical_of_integral_tables_does_not_load_fractions(tmp_path,
                                                            algebra):
    # the trace form, its kernel and the radical's powers of these
    # integral tables stay integral: the load-time proof, the products and
    # the elimination run on ints
    modules = _modules_after(tmp_path, "radical", algebra)
    assert "pca.radical" in modules
    assert [m for m in ("fractions", "decimal", "numbers") if m in modules] \
        == []


@pytest.mark.parametrize("command,module", [
    ("sepidem", "pca.separability"), ("wedderburn", "pca.wedderburn")])
def test_fractional_rationals_do_not_load_fractions(tmp_path, command,
                                                    module):
    # the separability idempotent of QC_6 is (1/6) sum g^i (x) g^-i, and
    # its central idempotents have sixths too: a Q scalar that is not an
    # integer is a Rational, which needs neither fractions nor numbers
    modules = _modules_after(tmp_path, command,
                             group_algebra(6, Rationals()))
    assert module in modules
    assert [m for m in ("fractions", "decimal", "numbers") if m in modules] \
        == []


def test_rational_job_does_not_load_re(tmp_path):
    # without site (-S), which loads re itself on many interpreters, a Q
    # job parses its scalars and its JSON without a regular expression
    modules = _modules_after(tmp_path, "sepidem",
                             group_algebra(6, Rationals()), flags=["-S"])
    assert "pca.separability" in modules
    assert [m for m in ("re", "json") if m in modules] == []


def test_no_module_imports_fractions():
    src = Path(pca.__file__).parent
    imports = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.name, node.module))
    assert [i for i in imports
            if i[1] in ("fractions", "decimal", "numbers")] == []


def test_both_launchers_enter_through_run():
    tomllib = pytest.importorskip("tomllib")
    root = Path(pca.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["pca"] == "pca.cli:run"
    main_module = (Path(pca.__file__).parent / "__main__.py").read_text()
    assert "sys.exit(run())" in main_module


def test_every_public_name_resolves():
    star = {}
    exec("from pca import *", star)
    assert len(pca.__all__) == 71
    for name in pca.__all__:
        obj = getattr(pca, name)
        assert star[name] is obj
        assert getattr(sys.modules[obj.__module__], name) is obj
    # the function keeps its name after its submodule is imported
    assert pca.radical is sys.modules["pca.radical"].radical
    with pytest.raises(AttributeError):
        getattr(pca, "no_such_name")
    with pytest.raises(ImportError):
        exec("from pca import no_such_name", {})


def test_no_module_imports_a_private_linalg_name():
    # the elimination kernel's rows and row step stay inside linalg;
    # other modules grow spans through Subspace
    src = Path(pca.__file__).parent
    leaks = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("linalg", "pca.linalg")):
                leaks += [(path.name, a.name) for a in node.names
                          if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "linalg"
                  and node.attr.startswith("_")):
                leaks.append((path.name, node.attr))
    assert leaks == []
