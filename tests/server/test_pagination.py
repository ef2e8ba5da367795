"""Paginated GET: protocol layout, database paging, clamping."""

import random
import threading

import pytest

from repro.client.endpoints import SocketEndpoint
from repro.core.signature import DeadlockSignature
from repro.crypto.userid import UserIdAuthority
from repro.net import dial
from repro.server.database import SignatureDatabase
from repro.server.protocol import (
    count_get_page,
    decode_get_page,
    encode_get_page_response,
    pack_signature_record,
    read_frame,
    write_frame,
)
from repro.server.server import CommunixServer, ServerConfig
from repro.server.transport import ServerTransport
from repro.util.clock import ManualClock
from repro.util.encoding import canonical_json
from repro.util.errors import ProtocolError


def fill(db, factory, n, uid_start=0):
    sigs = []
    for i in range(n):
        sig = factory.make_valid()
        db.append(sig, sig.to_bytes(), uid_start + i)
        sigs.append(sig)
    return sigs


class TestPageProtocol:
    def test_page_round_trip(self):
        blobs = [b"alpha", b"", b"gamma" * 100]
        chunks = [pack_signature_record(b) for b in blobs]
        payload = encode_get_page_response(42, len(blobs), chunks, more=True)
        next_index, decoded, more = decode_get_page(payload)
        assert (next_index, decoded, more) == (42, blobs, True)

    def test_page_no_more(self):
        payload = encode_get_page_response(7, 0, [], more=False)
        assert decode_get_page(payload) == (7, [], False)

    def test_count_agrees_with_decode(self):
        payload = encode_get_page_response(
            5, 1, [pack_signature_record(b"x")], more=True
        )
        assert count_get_page(payload) == (5, 1, True)
        assert decode_get_page(payload) == (5, [b"x"], True)

    def test_truncated_page_detected(self):
        payload = encode_get_page_response(
            1, 1, [pack_signature_record(b"abcdef")], more=False
        )
        with pytest.raises(ProtocolError):
            decode_get_page(payload[:-2])


class TestDatabasePaging:
    def test_page_bounds_and_more_flag(self, shared_factory):
        db = SignatureDatabase(segment_size=4)
        fill(db, shared_factory, 10)
        next_index, blobs, more = db.blobs_page(0, 3)
        assert (next_index, len(blobs), more) == (3, 3, True)
        next_index, blobs, more = db.blobs_page(3, 100)
        assert (next_index, len(blobs), more) == (10, 7, False)

    def test_pages_cross_segment_boundaries(self, shared_factory):
        db = SignatureDatabase(segment_size=3)
        sigs = fill(db, shared_factory, 8)
        expected = [s.sig_id for s in sigs]
        got = []
        cursor, more = 0, True
        while more:
            cursor, blobs, more = db.blobs_page(cursor, 2)
            got.extend(
                DeadlockSignature.from_bytes(b).sig_id for b in blobs
            )
        assert got == expected

    def test_wire_chunks_reassemble_to_blobs(self, shared_factory):
        db = SignatureDatabase(segment_size=3)
        sigs = fill(db, shared_factory, 7)
        next_index, count, chunks, more = db.wire_from(2, 4)
        assert (next_index, count, more) == (6, 4, True)
        payload = encode_get_page_response(next_index, count, chunks, more)
        _, blobs, _ = decode_get_page(payload)
        assert [DeadlockSignature.from_bytes(b).sig_id for b in blobs] == [
            s.sig_id for s in sigs[2:6]
        ]

    def test_sealed_segment_wire_cache_is_reused(self, shared_factory):
        db = SignatureDatabase(segment_size=2)
        fill(db, shared_factory, 5)
        first = db.wire_from(0, 100)[2]
        second = db.wire_from(0, 101)[2]  # a different page-cache key
        # Sealed segments hand back the identical cached bytes object.
        assert first[0] is second[0]
        assert first[1] is second[1]

    def test_append_invalidates_only_tail(self, shared_factory):
        db = SignatureDatabase(segment_size=2)
        fill(db, shared_factory, 5)
        sealed_before = db.wire_from(0, 100)[2][0]
        fill(db, shared_factory, 1)
        chunks_after = db.wire_from(0, 100)[2]
        assert chunks_after[0] is sealed_before

    def test_empty_page_past_end(self, shared_factory):
        db = SignatureDatabase(segment_size=4)
        fill(db, shared_factory, 2)
        next_index, count, chunks, more = db.wire_from(50, 10)
        assert (next_index, count, tuple(chunks), more) == (2, 0, (), False)


@pytest.fixture
def live_server():
    server = CommunixServer(
        authority=UserIdAuthority(rng=random.Random(21)),
        clock=ManualClock(start=1_000_000.0),
        config=ServerConfig(max_get_page=4),
    )
    transport = ServerTransport(server)
    transport.start()
    url = transport.bound_endpoints[0].url()
    yield server, url
    transport.stop()


def upload(server, factory, n):
    sigs = []
    for _ in range(n):
        sig = factory.make_valid()
        assert server.process_add(
            sig.to_bytes(), server.issue_user_token()
        ).accepted
        sigs.append(sig)
    return sigs


class TestServerPaging:
    def test_oversized_max_count_clamped(self, live_server, shared_factory):
        server, _ = live_server
        upload(server, shared_factory, 10)
        next_index, blobs, more = server.process_get_page(0, 10_000_000)
        assert len(blobs) == 4  # ServerConfig.max_get_page
        assert (next_index, more) == (4, True)

    def test_negative_max_count_empty_page(self, live_server, shared_factory):
        server, _ = live_server
        upload(server, shared_factory, 2)
        next_index, blobs, more = server.process_get_page(0, -3)
        assert (next_index, blobs, more) == (0, [], True)

    def test_tcp_pagination_loops_until_drained(self, live_server, shared_factory):
        server, url = live_server
        sigs = upload(server, shared_factory, 11)
        endpoint = SocketEndpoint(url)
        try:
            got, cursor, more, pages = [], 0, True, 0
            while more:
                cursor, blobs, more = endpoint.get_page(cursor, 1000)
                got.extend(blobs)
                pages += 1
            assert pages == 3  # 4 + 4 + 3 under the server's page cap
            assert [DeadlockSignature.from_bytes(b).sig_id for b in got] == [
                s.sig_id for s in sigs
            ]
        finally:
            endpoint.close()

    def test_paged_wire_layout_is_sig2(self, live_server, shared_factory):
        server, url = live_server
        upload(server, shared_factory, 6)
        sock = dial(url, timeout=5.0)
        try:
            write_frame(
                sock,
                canonical_json({"op": "GET", "from_index": 0, "max_count": 2}),
            )
            payload = read_frame(sock)
            assert payload[:4] == b"SIG2"
            next_index, blobs, more = decode_get_page(payload)
            assert (next_index, len(blobs), more) == (2, 2, True)
        finally:
            sock.close()

    def test_bad_max_count_rejected(self, live_server):
        _, url = live_server
        sock = dial(url, timeout=5.0)
        try:
            write_frame(
                sock,
                canonical_json(
                    {"op": "GET", "from_index": 0, "max_count": "lots"}
                ),
            )
            from repro.util.encoding import from_canonical_json

            response = from_canonical_json(read_frame(sock))
            assert response["ok"] is False
            assert "max_count" in response["error"]
        finally:
            sock.close()


class TestPagingUnderConcurrency:
    def test_adds_racing_paginated_get_no_gap_no_duplicate(
            self, live_server, shared_factory):
        """A reader paging through the database while writers append must
        see every index exactly once up to wherever it stops."""
        server, _ = live_server
        stop_adding = threading.Event()

        def writer():
            while not stop_adding.is_set():
                sig = shared_factory.make_valid()
                server.process_add(sig.to_bytes(), server.issue_user_token())

        writers = [threading.Thread(target=writer, daemon=True)
                   for _ in range(3)]
        for t in writers:
            t.start()
        try:
            seen_ids = []
            cursor = 0
            for _ in range(200):
                next_index, blobs, more = server.process_get_page(cursor, 3)
                assert next_index == cursor + len(blobs)
                seen_ids.extend(
                    DeadlockSignature.from_bytes(b).sig_id for b in blobs
                )
                cursor = next_index
                if not more and len(server.database) >= 30:
                    break
        finally:
            stop_adding.set()
            for t in writers:
                t.join(5.0)
        # Exactly-once in database order, no gaps, no duplicates.
        expected = [server.database.entry(i).sig_id for i in range(cursor)]
        assert seen_ids == expected
        assert len(set(seen_ids)) == len(seen_ids)
