import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Variables that set the thread count of numpy's BLAS; a child runs without
# them unless a test sets one.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    assert FIXTURES.is_dir(), f"fixture corpus missing: {FIXTURES}"
    return FIXTURES


@pytest.fixture(scope="session")
def child():
    """`child(code, *argv, **variables)` runs `python -c code argv...`
    in a fresh interpreter and returns its CompletedProcess with
    text output. The child imports the deteval under test: its source
    directory comes first on PYTHONPATH. It has this process's environment
    with `variables` set, less the BLAS thread-count variables they do not set."""
    import deteval

    src = Path(deteval.__file__).resolve().parent.parent

    def run(code, *argv, **variables) -> subprocess.CompletedProcess:
        path = [str(src), os.environ.get("PYTHONPATH")]
        env = {name: value for name, value in os.environ.items() if name not in _THREAD_VARIABLES}
        env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, path)))
        return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                              capture_output=True, text=True, env=env, timeout=120)

    return run
