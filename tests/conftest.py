import os
from pathlib import Path

import numpy as np
import pytest

from ergolab import builtin_map, resolve_measure

# `python -m ergolab` in a subprocess imports the same source tree as the
# tests (pyproject's pytest `pythonpath`), installed or not
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def doubling():
    return builtin_map("doubling")


@pytest.fixture(scope="session")
def cheb2():
    return builtin_map("chebyshev:2")


@pytest.fixture(scope="session")
def lsv25():
    return builtin_map("lsv:0.25")


@pytest.fixture(scope="session")
def doubling_nu(doubling):
    return resolve_measure(doubling, doubling.default_grid(4096))


@pytest.fixture(scope="session")
def cheb2_nu(cheb2):
    return resolve_measure(cheb2, cheb2.default_grid(4096))


@pytest.fixture(scope="session")
def lsv25_nu(lsv25):
    return resolve_measure(lsv25, lsv25.default_grid(4096))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
