import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from recoding import Alphabet, PrefixVocabulary, TransitionKernel


@pytest.fixture(scope="session")
def golden():
    path = Path(__file__).parent / "fixtures" / "golden.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="session")
def binary():
    return Alphabet.of_size(2)


@pytest.fixture(scope="session")
def hand_kernel(binary):
    """First-order binary kernel with P(1|0)=0.3, P(0|1)=0.4; its
    stationary law is (4/7, 3/7) by the two-state balance equation."""
    return TransitionKernel(binary, 1, np.array([[0.7, 0.3], [0.4, 0.6]]))


@pytest.fixture(scope="session")
def fig_vocab(binary):
    """The illustrative vocabulary {0, 1, 01, 010}."""
    return PrefixVocabulary(binary, ["010"])


@pytest.fixture(scope="session")
def uniform_iid(binary):
    return TransitionKernel(binary, 1, np.full((2, 2), 0.5))
