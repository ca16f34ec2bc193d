import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leftover_workers():
    """Fail a test that leaves a child process running, e.g. a sweep's frame
    worker outliving its pool; the leftovers are stopped so the next test
    starts clean."""
    yield
    leftover = multiprocessing.active_children()
    for child in leftover:
        child.terminate()
        child.join()
    assert not leftover, f"child processes still running after the test: {leftover}"
