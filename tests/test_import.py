"""Importing the package: numpy's OpenBLAS loads on one thread unless the
program chose a thread count or loaded numpy first, and ``os.environ`` is
left as it was.  Each case runs in a fresh interpreter, since OpenBLAS reads
its thread count once, when it loads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import curvforms

# the variables OpenBLAS reads its thread count from
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_name() -> str:
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("name", "")


pytestmark = [
    pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status to count threads"),
    pytest.mark.skipif(os.cpu_count() == 1, reason="OpenBLAS starts no worker thread on one CPU"),
    pytest.mark.skipif("openblas" not in _blas_name().lower(), reason="numpy's BLAS is not OpenBLAS"),
]


def _threads_after(imports: str, **variables) -> tuple:
    """(the thread count after ``imports``, whether ``os.environ`` is unchanged),
    in a fresh interpreter whose only BLAS thread-count variables are ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=str(Path(curvforms.__file__).parents[1]))
    probe = (
        "import os\n"
        "before = dict(os.environ)\n"
        f"{imports}\n"
        "threads = int(open('/proc/self/status').read().split('Threads:')[1].split()[0])\n"
        "print(threads, dict(os.environ) == before)\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60)
    threads, unchanged = out.stdout.split()
    return int(threads), unchanged == "True"


def test_the_package_loads_numpy_on_one_thread_and_leaves_the_environment():
    assert _threads_after("import curvforms") == (1, True)


@pytest.mark.parametrize("imports, variables", [
    ("import curvforms", {"OPENBLAS_NUM_THREADS": "2"}),
    ("import curvforms", {"OMP_NUM_THREADS": "2"}),
    ("import curvforms", {"OPENBLAS_DEFAULT_NUM_THREADS": "2"}),
    ("import numpy, curvforms", {}),
])
def test_a_chosen_thread_count_or_an_earlier_numpy_is_kept(imports, variables):
    plain, _ = _threads_after("import numpy", **variables)
    assert _threads_after(imports, **variables) == (plain, True)


def test_without_a_thread_count_plain_numpy_starts_workers():
    # else the first test shows nothing
    assert _threads_after("import numpy")[0] > 1
