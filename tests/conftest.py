import pytest

from poolgraph import oracle


@pytest.fixture(autouse=True)
def _empty_oracle_cache():
    """Each test starts and ends with no cached oracle pass.

    A pass cached under a test's monkeypatched blocks or block bound would
    otherwise answer later calls, in that test's file or another.
    """
    oracle._pattern_counts.cache_clear()
    yield
    oracle._pattern_counts.cache_clear()
