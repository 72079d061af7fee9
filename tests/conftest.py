import faulthandler
import os
from functools import cached_property

import pytest

from mcgraph.graph import Graph
from mcgraph.smallgraphs import connected_corpus

# A test still running after this many seconds has hung: every thread's
# traceback goes to stderr and the run exits with status 1, so CI fails
# instead of stalling until its job timeout.  The slowest test takes about
# 6 s on a 2-CPU runner.
HUNG_TEST_S = 120
_STDERR = pytest.StashKey()


def pytest_configure(config):
    # a copy of the real stderr, taken while pytest captures nothing: while
    # a test runs, descriptor 2 goes to a capture file lost at the exit
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.fixture(autouse=True)
def fail_a_hung_test(request):
    faulthandler.dump_traceback_later(
        HUNG_TEST_S, exit=True, file=request.config.stash[_STDERR]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def corpus6():
    """Nonisomorphic connected graphs, 2..6 vertices, at most 10 edges."""
    return connected_corpus(6, max_edges=10)


@pytest.fixture()
def connectedness_searches(monkeypatch):
    """Every graph whose connectedness is searched for, through a counting
    ``Graph.connected``."""
    calls = []
    real = Graph.__dict__["connected"].func
    counting = cached_property(lambda g: calls.append(g) or real(g))
    counting.__set_name__(Graph, "connected")
    monkeypatch.setattr(Graph, "connected", counting)
    return calls
