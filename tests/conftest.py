import threading

import pytest

from meadjust import CohortConfig, simulate_cohort


@pytest.fixture(scope="session")
def full_scale_cohort():
    """Full-scale null cohort used by the naive-fit and acceptance tests."""
    return simulate_cohort(CohortConfig(n=100_000, seed=42))


@pytest.fixture(scope="session")
def geweke_results():
    """Joint-distribution test results for all three kernel configurations,
    computed once per session (shared by the Geweke tests and the acceptance
    suite)."""
    from geweke_harness import run_all_configs

    return run_all_configs()


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a non-daemon thread running, such as a chain
    pool not shut down on an error path."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and not t.daemon]
    assert not leaked, f"threads left running: {leaked}"
