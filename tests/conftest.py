"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    GpuSimulator,
    MiningProblem,
    UPPERCASE,
    generate_level,
    get_card,
    random_database,
)


@pytest.fixture(scope="session")
def small_db() -> np.ndarray:
    """A 5,003-symbol database (prime length exercises ragged segments)."""
    return random_database(5003, seed=101)


@pytest.fixture(scope="session")
def medium_db() -> np.ndarray:
    """A 40,009-symbol database for integration-grade tests."""
    return random_database(40009, seed=202)


@pytest.fixture(scope="session")
def level2_episodes():
    return tuple(generate_level(UPPERCASE, 2))


@pytest.fixture(scope="session")
def level1_episodes():
    return tuple(generate_level(UPPERCASE, 1))


@pytest.fixture()
def gtx280_sim() -> GpuSimulator:
    return GpuSimulator(get_card("GTX280"))


@pytest.fixture()
def g92_sim() -> GpuSimulator:
    return GpuSimulator(get_card("8800GTS512"))


@pytest.fixture(scope="session")
def small_problem(small_db, level2_episodes) -> MiningProblem:
    return MiningProblem(small_db, level2_episodes[:20], UPPERCASE.size)
