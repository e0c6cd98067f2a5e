import os
from pathlib import Path

import numpy as np
import pytest

# CLI tests start child processes; they must import the same `src/` package
# as the test process, also when `src/` comes only from pyproject's pythonpath
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
