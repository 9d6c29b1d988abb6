"""A per-test watchdog, so that a test which hangs fails the run.

A wrong digit in the heuristic GCD loops forever instead of failing an
assertion. pytest-timeout is not a dependency, and pytest's own
`faulthandler_timeout` dumps a traceback without failing anything, so each
test runs under `faulthandler.dump_traceback_later(..., exit=True)`: past
the limit, every thread's stack goes to stderr and the process exits 1.
"""

import faulthandler
import os

import pytest

# The slowest test takes about 3 s; slow CI machines get twenty-fold room.
WATCHDOG_SECONDS = 60

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended here. While a test runs, fd 2 goes to a
    # capture file that a process exit would discard with the traceback.
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def watchdog(request):
    faulthandler.dump_traceback_later(
        WATCHDOG_SECONDS, exit=True, file=request.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
