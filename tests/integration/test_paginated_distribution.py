"""End-to-end: event-driven transport + paginated client downloads.

The full paper pipeline over real sockets — signatures uploaded to the
server, a CommunixClient streaming them down in bounded pages into its
local repository — including ADDs racing the paginated download.
"""

import random
import threading

import pytest

from repro.client.client import CommunixClient
from repro.client.endpoints import SocketEndpoint
from repro.core.repository import LocalRepository
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock


@pytest.fixture
def stack():
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(31)),
        clock=ManualClock(start=1_000_000.0),
        config=ServerConfig(max_get_page=8),
    )
    transport = ServerTransport(server)
    transport.start()
    url = transport.bound_endpoints[0].url()
    endpoint = SocketEndpoint(url)
    yield server, endpoint
    endpoint.close()
    transport.stop()


def upload(server, factory, n):
    for _ in range(n):
        sig = factory.make_valid()
        assert server.process_add(
            sig.to_bytes(), server.issue_user_token()
        ).accepted


class TestPaginatedDistribution:
    def test_cold_client_streams_database_in_pages(self, stack, shared_factory,
                                                   tmp_path):
        server, endpoint = stack
        upload(server, shared_factory, 30)
        repo = LocalRepository(path=tmp_path / "repo.json")
        client = CommunixClient(
            endpoint=endpoint, repository=repo,
            clock=ManualClock(start=1_000_000.0), page_size=8,
        )
        report = client.poll_once()
        assert not report.failed
        assert report.pages == 4  # 8+8+8+6 under the server page cap
        assert report.received == 30
        assert len(repo) == 30
        assert repo.server_index == 30
        ids = {repo.signature_at(i).sig_id for i in range(30)}
        assert len(ids) == 30

    def test_download_racing_uploads_converges_exactly_once(
            self, stack, shared_factory):
        server, endpoint = stack
        upload(server, shared_factory, 10)
        repo = LocalRepository()
        client = CommunixClient(
            endpoint=endpoint, repository=repo,
            clock=ManualClock(start=1_000_000.0), page_size=4,
        )
        stop = threading.Event()

        def writer():
            # Bounded: an unbounded writer could outpace the paging reader
            # forever (poll_once loops while the server reports more).
            for _ in range(40):
                if stop.is_set():
                    return
                upload(server, shared_factory, 1)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            client.poll_once()
        finally:
            stop.set()
            thread.join(10.0)
        # Settle: one more poll with the writers quiet drains the rest.
        client.poll_once()
        size = len(server.database)
        assert len(repo) == size
        assert repo.server_index == size
        ids = {repo.signature_at(i).sig_id for i in range(len(repo))}
        assert len(ids) == size  # every signature exactly once, no gaps

    def test_incremental_next_day_only_new_pages(self, stack, shared_factory):
        server, endpoint = stack
        upload(server, shared_factory, 12)
        repo = LocalRepository()
        client = CommunixClient(
            endpoint=endpoint, repository=repo,
            clock=ManualClock(start=1_000_000.0), page_size=8,
        )
        client.poll_once()
        assert repo.server_index == 12
        upload(server, shared_factory, 3)
        report = client.poll_once()
        assert report.requested_from == 12
        assert report.received == 3
        assert report.pages == 1
        assert len(repo) == 15
