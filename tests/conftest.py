"""Suite-wide guards."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    # a test must join every non-daemon thread it starts: one left running
    # keeps the interpreter alive after the run, and a benchmark pass that
    # leaves work running is refused
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate()
              if t not in before and not t.daemon and t.is_alive()]
    if leaked:
        pytest.fail(f"test left non-daemon threads running: {leaked}")
