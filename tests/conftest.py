"""Every test starts from a freshly built counterexample fixture.

`counterexample_fixture` is built once per process and shared; its
complexes memoize their facets.  Clearing the cache before each test keeps
tests independent of their order, so a test that counts the work of
building the fixture sees that work."""

import pytest

from skelpot.fixtures import counterexample_fixture


@pytest.fixture(autouse=True)
def _fresh_counterexample_fixture():
    counterexample_fixture.cache_clear()
