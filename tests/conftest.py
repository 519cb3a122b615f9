import os

import pytest

from cfsdim import CFSystem, FourCornerSystem, ProbVector

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))

# pyproject's pytest ``pythonpath`` reaches this process only; the CLI
# determinism tests start ``python -m cfsdim.cli`` and need src/ as well.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))


def config_path(name: str) -> str:
    return os.path.abspath(os.path.join(CONFIG_DIR, name))


@pytest.fixture
def equal_halves():
    return CFSystem([0.0, 1.0], [[0.5], [0.5]])


@pytest.fixture
def cantor_quarter():
    return CFSystem([0.0, 1.0], [[0.25], [0.25]])


@pytest.fixture
def two_group_overlap():
    """Groups (2, 1): two maps share the fixed point 0."""
    return CFSystem([0.0, 1.0], [[0.3, 0.2], [0.25]])


@pytest.fixture
def all_third():
    return CFSystem([0.0, 1.0], [[1 / 3, 1 / 3], [1 / 3]])


@pytest.fixture
def four_corner_main():
    return FourCornerSystem([[0.8, 0.1], [0.1, 0.8]],
                            [[0.45, 0.09], [0.09, 0.45]])


@pytest.fixture
def uniform21(two_group_overlap):
    return ProbVector.uniform(two_group_overlap)
