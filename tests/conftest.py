import random

import pytest
from hypothesis import HealthCheck, settings

from scmc import make_protocol
from corpus import walk_trace

settings.register_profile(
    "scmc",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("scmc")


@pytest.fixture(scope="session")
def long_walk():
    """A seeded 10,000-event walk of piranha 3x3, acyclic under the simple
    write order."""
    protocol = make_protocol("piranha", 3, 3)
    return walk_trace(random.Random(1), protocol, protocol.initial_states(), 10_000, 200_000)
