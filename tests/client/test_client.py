"""Communix client tests: incremental daily downloads (§III-B)."""

import errno
import os
import random
import time

import pytest

from repro.client.client import CommunixClient
from repro.client.endpoints import InProcessEndpoint
from repro.core.repository import LocalRepository
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer
from repro.util.clock import ManualClock


@pytest.fixture
def deployment(manual_clock):
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(9)), clock=manual_clock
    )
    endpoint = InProcessEndpoint(server)
    repo = LocalRepository()
    client = CommunixClient(
        endpoint=endpoint, repository=repo, clock=manual_clock, period=86_400.0
    )
    return server, endpoint, repo, client


def upload(server, factory, n):
    sigs = []
    for _ in range(n):
        token = server.issue_user_token()
        sig = factory.make_valid()
        assert server.process_add(sig.to_bytes(), token).accepted
        sigs.append(sig)
    return sigs


class TestPollOnce:
    def test_initial_full_download(self, deployment, shared_factory):
        server, _, repo, client = deployment
        upload(server, shared_factory, 3)
        report = client.poll_once()
        assert report.received == 3
        assert report.stored == 3
        assert len(repo) == 3
        assert repo.server_index == 3

    def test_incremental_second_poll(self, deployment, shared_factory):
        server, _, repo, client = deployment
        upload(server, shared_factory, 2)
        client.poll_once()
        upload(server, shared_factory, 2)
        report = client.poll_once()
        assert report.requested_from == 2
        assert report.received == 2  # only the new ones travel
        assert len(repo) == 4

    def test_no_news_empty_download(self, deployment, shared_factory):
        server, _, repo, client = deployment
        upload(server, shared_factory, 1)
        client.poll_once()
        report = client.poll_once()
        assert report.received == 0
        assert report.stored == 0

    def test_malformed_blob_skipped(self, deployment, shared_factory):
        server, endpoint, repo, client = deployment

        class HostileEndpoint:
            def get_page(self, from_index, max_count):
                return (2, [b"not a signature",
                            shared_factory.make_valid().to_bytes()], False)

        hostile_client = CommunixClient(
            endpoint=HostileEndpoint(), repository=repo,
            clock=client.clock, period=86_400.0,
        )
        report = hostile_client.poll_once()
        assert report.malformed == 1
        assert report.stored == 1

    def test_endpoint_failure_reported_not_raised(self, deployment):
        _, _, repo, client = deployment

        class DeadEndpoint:
            def get_page(self, from_index, max_count):
                from repro.util.errors import ProtocolError

                raise ProtocolError("gone")

        failing = CommunixClient(
            endpoint=DeadEndpoint(), repository=repo, clock=client.clock
        )
        report = failing.poll_once()
        assert report.failed
        assert "gone" in report.error
        assert len(repo) == 0


class TestPaginatedDownload:
    def test_cold_download_pages_until_drained(self, deployment, shared_factory):
        server, endpoint, repo, client = deployment
        client.page_size = 2
        sigs = upload(server, shared_factory, 7)
        report = client.poll_once()
        assert report.pages == 4  # 2+2+2+1
        assert report.received == 7
        assert report.stored == 7
        assert repo.server_index == 7
        assert [repo.signature_at(i).sig_id for i in range(7)] == [
            s.sig_id for s in sigs
        ]

    def test_resume_mid_stream_every_signature_exactly_once(
            self, deployment, shared_factory):
        """A client whose download dies mid-stream resumes from the page
        boundary and ends with every signature exactly once."""
        server, endpoint, repo, client = deployment
        upload(server, shared_factory, 6)

        class FlakyEndpoint:
            """Delivers one page, then dies; recovers on the next poll."""

            def __init__(self, inner):
                self.inner = inner
                self.pages_served = 0
                self.fail_after = 1

            def get_page(self, from_index, max_count):
                from repro.util.errors import ProtocolError

                if self.pages_served >= self.fail_after:
                    raise ProtocolError("connection lost mid-stream")
                self.pages_served += 1
                return self.inner.get_page(from_index, max_count)

        flaky = FlakyEndpoint(endpoint)
        client.endpoint = flaky
        client.page_size = 2
        first = client.poll_once()
        assert first.failed
        assert first.received == 2  # one page landed before the failure
        assert repo.server_index == 2  # progress survived the failure
        flaky.fail_after = 1_000
        second = client.poll_once()
        assert second.requested_from == 2
        assert not second.failed
        assert len(repo) == 6
        ids = [repo.signature_at(i).sig_id for i in range(len(repo))]
        assert len(set(ids)) == 6  # exactly once: no duplicates, no gaps
        assert repo.server_index == 6

    def test_adds_between_pages_are_picked_up(self, deployment, shared_factory):
        """Signatures appended while a paginated download is in flight are
        served before the stream reports 'drained'."""
        server, endpoint, repo, client = deployment
        upload(server, shared_factory, 3)

        class TrickleEndpoint:
            def __init__(self, inner, server_, factory):
                self.inner = inner
                self.server = server_
                self.factory = factory
                self.injected = False

            def get_page(self, from_index, max_count):
                page = self.inner.get_page(from_index, max_count)
                if not self.injected:
                    self.injected = True
                    upload(self.server, self.factory, 2)
                return page

        client.endpoint = TrickleEndpoint(endpoint, server, shared_factory)
        client.page_size = 2
        report = client.poll_once()
        assert report.received == 5
        assert len(repo) == 5
        assert repo.server_index == 5


class TestBackgroundDaemon:
    def _wait_for(self, predicate, timeout=3.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.02)
        return predicate()

    def test_periodic_download_on_manual_clock(self, deployment, shared_factory):
        server, _, repo, client = deployment
        upload(server, shared_factory, 1)
        client.start()
        try:
            assert self._wait_for(lambda: len(repo) == 1)
            upload(server, shared_factory, 1)
            # Within the same "day" nothing new is fetched...
            time.sleep(0.1)
            assert len(repo) == 1
            # ...but advancing a day triggers the next incremental poll.
            client.clock.advance(86_400.0)
            assert self._wait_for(lambda: len(repo) == 2)
        finally:
            client.stop()

    def test_failed_page_store_keeps_polling(self, manual_clock, tmp_path,
                                             monkeypatch, shared_factory):
        """A page whose log fsync fails is reported, and the poll thread
        lives on: the next due poll makes the page durable."""
        server = CommunixServer(
            authority=UserIdAuthority(rng=random.Random(9)), clock=manual_clock
        )
        upload(server, shared_factory, 3)
        repo = LocalRepository(path=tmp_path / "repo")
        client = CommunixClient(endpoint=InProcessEndpoint(server),
                                repository=repo, clock=manual_clock)
        failed = []
        real_fsync = os.fsync

        def fail_once(fd):
            if not failed:
                failed.append(fd)
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fail_once)
        client.start()
        try:
            assert self._wait_for(lambda: len(client.reports) == 1)
            report = client.reports[0]
            assert report.failed and os.strerror(errno.EIO) in report.error
            # The page was received, and its failed store is not counted.
            assert (report.pages, report.received, report.stored) == (1, 3, 0)
            assert failed and client._thread.is_alive()
            client.clock.advance(86_400.0)
            assert self._wait_for(lambda: len(client.reports) == 2)
            assert not client.reports[1].failed
            assert client._thread.is_alive()
        finally:
            client.stop()
        assert (len(repo), repo.server_index) == (3, 3)
        repo.close()
        reopened = LocalRepository(path=tmp_path / "repo")
        assert (len(reopened), reopened.server_index) == (3, 3)
        reopened.close()

    def test_start_idempotent_and_stop(self, deployment):
        _, _, _, client = deployment
        client.start()
        client.start()
        client.stop()
        client.stop()
