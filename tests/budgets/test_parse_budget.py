"""Deterministic work budgets: signature parses per request.

Counting work instead of timing it gives a reading that does not drift
with the machine.  ``DeadlockSignature.from_bytes`` is wrapped with a
counter and requests go through an in-process :class:`CommunixServer`:
a steady ADD parses its blob exactly once (fresh or duplicate, memory or
durable), and serving a GET page parses none.
"""

import pytest

from repro.core.signature import DeadlockSignature
from repro.loadgen.signatures import random_signature_blobs
from repro.server.server import CommunixServer, ServerConfig


@pytest.fixture
def parses(monkeypatch):
    """A list that grows by one blob per ``from_bytes`` call."""
    seen = []
    original = DeadlockSignature.from_bytes

    def counting(data, *args, **kwargs):
        seen.append(data)
        return original(data, *args, **kwargs)

    monkeypatch.setattr(DeadlockSignature, "from_bytes",
                        staticmethod(counting))
    return seen


@pytest.fixture(params=["memory", "durable"])
def server(request, tmp_path):
    data_dir = str(tmp_path / "data") if request.param == "durable" else None
    server = CommunixServer(ServerConfig(
        max_signatures_per_user_per_day=1_000, adjacency_check=False,
        data_dir=data_dir))
    yield server
    server.close()


@pytest.fixture(scope="module")
def blobs():
    return random_signature_blobs(8, seed=5)


def test_fresh_add_parses_its_blob_once(server, blobs, parses):
    token = server.issue_user_token()
    for blob in blobs:
        before = len(parses)
        assert server.process_add(blob, token).accepted
        assert parses[before:] == [blob]


def test_duplicate_add_parses_its_blob_once(server, blobs, parses):
    token = server.issue_user_token()
    first = server.process_add(blobs[0], token)
    del parses[:]
    again = server.process_add(blobs[0], server.issue_user_token())
    assert (again.accepted, again.index) == (True, first.index)
    assert parses == [blobs[0]]


def test_get_page_parses_no_blob(server, blobs, parses):
    token = server.issue_user_token()
    for blob in blobs:
        server.process_add(blob, token)
    del parses[:]
    next_index, count, _, more = server.process_get_wire(0, 4096)
    assert (next_index, count, more) == (len(blobs), len(blobs), False)
    server.process_get_wire(3, 2)  # a mid-log page, cache cold
    assert parses == []
