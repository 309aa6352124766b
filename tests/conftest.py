from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mppabsorber import acoustics
from mppabsorber import (
    BASELINE_DESIGN,
    DEFAULT_GRID,
    DEFAULT_MPPS,
    OPTIMIZED_DESIGN,
    absorption_spectrum,
    build_chain,
    load_config,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Every property test draws the same examples on every run and has no
# deadline; each test sets only its example count.
settings.register_profile("mppabsorber", derandomize=True, deadline=None)
settings.load_profile("mppabsorber")


@pytest.fixture(scope="session")
def baseline_chain():
    return build_chain(BASELINE_DESIGN, DEFAULT_MPPS)


@pytest.fixture(scope="session")
def optimized_chain():
    return build_chain(OPTIMIZED_DESIGN, DEFAULT_MPPS)


@pytest.fixture(scope="session")
def single_chain():
    return load_config(CONFIG_DIR / "single_chamber.json").structure.chain()


@pytest.fixture(scope="session")
def baseline_spectrum(baseline_chain):
    return absorption_spectrum(baseline_chain, DEFAULT_GRID)


@pytest.fixture(scope="session")
def optimized_spectrum(optimized_chain):
    return absorption_spectrum(optimized_chain, DEFAULT_GRID)


@pytest.fixture(scope="session")
def single_spectrum(single_chain):
    return absorption_spectrum(single_chain, DEFAULT_GRID)


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture
def nan_walk(monkeypatch):
    """The solver's walk ending in NaN pressures, as an overflow leaves them."""
    walk = acoustics._walk

    def overflowed(*args):
        [(p, u)] = walk(*args)
        p[:] = np.nan
        return [(p, u)]

    monkeypatch.setattr(acoustics, "_walk", overflowed)
