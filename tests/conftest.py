import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dyonfw import catalog as cat_mod
from dyonfw import checks


@pytest.fixture(scope="session")
def catalog():
    return cat_mod.ReferenceCatalog.build()


@pytest.fixture(scope="session")
def dirac_result():
    return checks.pipeline("dirac")


@pytest.fixture(scope="session")
def pauli_result():
    return checks.pipeline("dirac-pauli")
