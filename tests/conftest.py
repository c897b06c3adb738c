import pytest

from z2poisson import build_pair, contract, index


@pytest.fixture(scope="session")
def pair():
    """Session-cached pair realizations."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = build_pair(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def eliminated_index(pair):
    """index of a pair's contraction by symbolic elimination, computed once
    per pair for the whole session: the library keeps no index cache."""
    cache = {}

    def get(name: str):
        if name not in cache:
            pr = pair(name)
            cache[name] = index(contract(pr.g, pr.grading))
        return cache[name]

    return get
