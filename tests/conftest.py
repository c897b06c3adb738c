import pytest

from z2poisson import build_pair


@pytest.fixture(scope="session")
def pair():
    """Session-cached pair realizations."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = build_pair(name)
        return cache[name]

    return get

