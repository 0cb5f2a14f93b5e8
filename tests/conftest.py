import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
