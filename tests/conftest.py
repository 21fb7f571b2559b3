"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.system import SystemDims, make_system


@pytest.fixture(scope="session")
def small_dims() -> SystemDims:
    """A tiny but fully structured system (fast unit tests)."""
    return SystemDims(
        n_stars=20,
        n_obs=600,
        n_deg_freedom_att=12,
        n_instr_params=18,
        n_glob_params=1,
    )


@pytest.fixture(scope="session")
def small_system(small_dims):
    """Star-sorted consistent system with tiny noise."""
    return make_system(small_dims, seed=11, noise_sigma=1e-10)


@pytest.fixture(scope="session")
def shuffled_system(small_dims):
    """Row-shuffled variant stressing the colliding scatter paths."""
    return make_system(small_dims, seed=11, noise_sigma=1e-10,
                       shuffle_rows=True)


@pytest.fixture(scope="session")
def noglob_dims() -> SystemDims:
    """Validation-style dims: no global section."""
    return SystemDims(
        n_stars=25,
        n_obs=750,
        n_deg_freedom_att=10,
        n_instr_params=15,
        n_glob_params=0,
    )


@pytest.fixture(scope="session")
def noglob_system(noglob_dims):
    return make_system(noglob_dims, seed=23, noise_sigma=1e-10)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture()
def operator_builds(monkeypatch) -> list[int]:
    """Counts every AprodOperator construction, telemetry or not:
    ``len(operator_builds)`` after the code under test ran."""
    from repro.core.aprod import AprodOperator

    builds: list[int] = []
    init = AprodOperator.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AprodOperator, "__init__", counting_init)
    return builds
