"""Shared fixtures of the sharded-serving test suite.

Model/graph builders come from the session-scoped parity fixtures in
``tests/conftest.py``; here we only add the sharded sessions themselves.
Sessions are function-scoped: fault tests kill workers, and every test
should start from a healthy fleet.
"""

import multiprocessing

import numpy as np
import pytest

from repro.graphs.partition import partition_graph


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Every test leaves the fleet it started closed: no child process
    outlives the test, whether it passed, failed or injected a fault."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def shard_artifact(parity_artifact):
    return parity_artifact("gcn", 1)


@pytest.fixture
def sharded_session(shard_artifact, parity_graph):
    from repro.sharding import ShardedBlockSession

    session = ShardedBlockSession(shard_artifact, parity_graph, shards=2,
                                  partition="hash", fanouts=3, batch_size=32,
                                  seed=7, request_deadline_s=15.0)
    yield session
    session.close()


@pytest.fixture(scope="module")
def shard_requests(parity_graph):
    """One 32-seed request per shard, each wholly owned by its shard.

    Sized exactly to the sessions' ``batch_size`` so every request is one
    chunk — request-level failure isolation then maps 1:1 onto the router's
    chunk-level isolation.
    """
    assignment = partition_graph(parity_graph, 2, strategy="hash")
    requests = []
    for shard in (0, 1):
        members = np.flatnonzero(assignment == shard)
        assert members.size >= 32
        requests.append(members[:32])
    return requests
