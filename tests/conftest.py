import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qergo
from qergo import computational_basis, haar_random_basis, make_basis

SQRT_HALF = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="session")
def z2():
    return computational_basis(2)


@pytest.fixture(scope="session")
def x2():
    return make_basis(
        np.array([[1, 1], [1, -1]]) * SQRT_HALF, labels=["+", "-"]
    )


@pytest.fixture(scope="session")
def y2():
    return make_basis(
        np.array([[1, 1], [1j, -1j]]) * SQRT_HALF, labels=["+i", "-i"]
    )


def haar_triple(dim: int, seed: int):
    return (
        haar_random_basis(dim, 3 * seed),
        haar_random_basis(dim, 3 * seed + 1),
        haar_random_basis(dim, 3 * seed + 2),
    )


def run_fresh_interpreter(probe: str) -> str:
    """stdout of ``python -c probe`` in a new interpreter that imports this qergo.

    A fresh process starts from the state a CLI run starts from: no module
    imported, no heap left behind by earlier tests.
    """
    src = str(Path(qergo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return out.stdout
