"""What a fresh process loads and how it sets up BLAS.

Each case runs in its own interpreter, since the modules already loaded
and the environment of the test process would hide what an import does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNUSED = ("scipy.sparse.linalg", "scipy.linalg", "scipy.special")


def fresh(code: str, **env_vars) -> dict:
    """Run `code` in a fresh interpreter with the package on its path and
    the BLAS variables unset, then env_vars; return the JSON object that
    `code` prints last."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def blas_env(first: str, **env_vars) -> dict:
    return fresh(f"import json, os\nimport {first}\nimport quanthom\n"
                 f"print(json.dumps({{v: os.environ.get(v) for v in "
                 f"{BLAS_VARS!r}}}))", **env_vars)


def test_blas_defaults_to_one_thread():
    assert blas_env("os") == dict.fromkeys(BLAS_VARS, "1")


def test_blas_keeps_the_users_value():
    assert blas_env("os", OPENBLAS_NUM_THREADS="2") == {
        "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}


def test_blas_left_alone_after_numpy():
    # numpy has already loaded BLAS, which no longer reads the variables,
    # so the package leaves the environment as the user left it
    assert blas_env("numpy") == dict.fromkeys(BLAS_VARS)


def test_hopf_run_loads_no_unused_scipy_module():
    # the own CG loop needs no scipy.sparse.linalg, and no Gauss rule is
    # built on S^3, so neither scipy.special nor scipy.linalg is loaded
    loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from quanthom import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['invariant', '--map', 'hopf', '--structure',\n"
        "                     'hopf:n=1', '--level', '1'])\n"
        f"print(json.dumps([code, [m for m in {UNUSED!r} "
        f"if m in sys.modules]]))")
    assert loaded == [0, []]


def test_gauss_rules_load_scipy_special_on_demand():
    # the first Gauss-Legendre rule (S^1) and Gauss-Jacobi rule (the
    # leading term) import scipy.special, with the same values as before
    values = fresh(
        "import json, sys\n"
        "from quanthom import parse_map_spec, sobolev_seminorm\n"
        "before = 'scipy.special' in sys.modules\n"
        "a = sobolev_seminorm(parse_map_spec('circle-power:d=2'), 0.5, 2.0)\n"
        "b = sobolev_seminorm(parse_map_spec('suspension:d=2'), 0.8, 2.5,\n"
        "                     samples=3000, seed=3)\n"
        "print(json.dumps([before, 'scipy.special' in sys.modules,\n"
        "                  [e.value.hex() for e in (a, b)]]))")
    assert values == [False, True, ["0x1.1c5831add6380p+3",
                                    "0x1.926682051f823p+3"]]
