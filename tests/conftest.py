import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail any test that leaves a live child process behind."""
    yield
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.kill()
        proc.join()
    if leaked:
        pytest.fail(f"test left live child processes: {leaked}")
