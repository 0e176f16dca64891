import os

import pytest

from wvlab import family


@pytest.fixture
def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for
    a fresh interpreter that runs ``python -m wvlab``."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def exp_series():
    return family("exp")


@pytest.fixture(scope="session")
def geometric_series():
    return family("geometric")


@pytest.fixture(scope="session")
def kovari1_series():
    return family("kovari", rho=1)


@pytest.fixture(scope="session")
def suleimanov_half_series():
    return family("suleimanov", epsilon=0.5)
