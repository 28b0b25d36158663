import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dyonfw import catalog as cat_mod
from dyonfw import checks, fw
from dyonfw import hamiltonians as ham


@pytest.fixture(scope="session")
def catalog():
    return cat_mod.ReferenceCatalog.build()


@pytest.fixture(scope="session")
def dirac_result():
    return checks.pipeline("dirac")


@pytest.fixture(scope="session")
def pauli_result():
    return checks.pipeline("dirac-pauli")


# The paper's stated reach: the generic dyon run to 1/Eg order 8, once per model.
@pytest.fixture(scope="session")
def dirac_result_8():
    return fw.fw_run(ham.build_dirac_hamiltonian(ham.GENERIC_DYON), 8, model="dirac")


@pytest.fixture(scope="session")
def pauli_result_8():
    return fw.fw_run(ham.build_dirac_pauli_hamiltonian(ham.GENERIC_DYON), 8, model="dirac-pauli")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process behind, such as a forked
    CSV helper, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def helper_forks(monkeypatch):
    """Count the forks a test makes, and the most forked children alive
    (forked and not yet waited for) at once."""
    fork, waitpid = os.fork, os.waitpid
    alive = set()
    seen = {"forks": 0, "most_alive": 0}

    def counting_fork():
        pid = fork()
        if pid:
            alive.add(pid)
            seen["forks"] += 1
            seen["most_alive"] = max(seen["most_alive"], len(alive))
        return pid

    def counting_waitpid(pid, options):
        result = waitpid(pid, options)
        alive.discard(result[0])
        return result

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", counting_waitpid)
    return seen
