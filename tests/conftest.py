import pytest

from nashroyalty import posterior


@pytest.fixture(autouse=True)
def nothing_kept():
    """Start each test with no CDF values kept for ``cdf_at``, so that none
    was located by another test's patched kernel."""
    posterior._located = posterior._NOTHING
