"""The package loads numpy with one BLAS thread unless the caller chose."""

import json
import os
import subprocess
import sys

import pytest

import cavneg

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least two CPUs for a BLAS pool to show",
)

# prints the native thread count and the environment after the given imports
_PROBE = (
    "import json, os, sys\n"
    "before = dict(os.environ)\n"
    "for name in sys.argv[1:]:\n"
    "    __import__(name)\n"
    "print(json.dumps({'threads': len(os.listdir('/proc/self/task')),\n"
    "                  'before': before, 'after': dict(os.environ)}))\n"
)


def _probe(*modules, **env_vars):
    # a fresh interpreter, so numpy and its BLAS library load inside it
    src = os.path.dirname(os.path.dirname(cavneg.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *modules],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_import_leaves_one_thread_and_the_environment_as_it_was():
    got = _probe("cavneg")
    assert got["threads"] == 1
    assert "OPENBLAS_NUM_THREADS" not in got["after"]
    assert got["after"] == got["before"]


def test_a_thread_count_the_caller_set_is_kept():
    got = _probe("cavneg", OPENBLAS_NUM_THREADS="2")
    assert got["after"]["OPENBLAS_NUM_THREADS"] == "2"
    assert got["after"] == got["before"]
    assert got["threads"] == _probe("numpy", OPENBLAS_NUM_THREADS="2")["threads"]


def test_numpy_imported_first_is_left_alone():
    got = _probe("numpy", "cavneg")
    assert got["after"] == got["before"]
    assert got["threads"] == _probe("numpy")["threads"]
