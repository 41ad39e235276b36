"""Run the ``pca`` command line in a subprocess, against the package under test.

The child gets the directory that holds the ``pca`` package this process
imported, as an absolute path, first on ``PYTHONPATH``. A relative
``PYTHONPATH`` (such as ``src``) would otherwise be resolved against the
child's working directory, and the child would fail to import ``pca`` or
import a different copy of it.
"""

import os
import subprocess
import sys

import pca

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(pca.__file__)))


def cli_env():
    """The caller's environment with ``PACKAGE_ROOT`` prepended to
    ``PYTHONPATH``."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_ROOT + (os.pathsep + old if old else "")
    return env


def run_cli(*args, cwd=None, text=True, **kwargs):
    """Run ``python -m pca *args`` in ``cwd`` and capture its output; any
    other keyword (``timeout``, ``preexec_fn``) goes to ``subprocess.run``."""
    return subprocess.run([sys.executable, "-m", "pca", *args],
                          capture_output=True, text=text, cwd=cwd,
                          env=cli_env(), **kwargs)
