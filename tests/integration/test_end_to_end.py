"""End-to-end collaborative immunity (the paper's headline behaviour).

Node A experiences a deadlock; through Dimmunix -> plugin -> server ->
client -> agent, node B — which never deadlocked — becomes immune.
"""

import random

import pytest

import repro.sim.workloads as workloads_mod
from repro.client.endpoints import InProcessEndpoint
from repro.core.node import CommunixNode
from repro.core.pyapp import PythonAppAdapter
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer
from repro.sim.workloads import TwoLockProgram
from repro.util.clock import ManualClock
from tests.conftest import make_fast_config


@pytest.fixture
def server():
    return CommunixServer(
        authority=UserIdAuthority(rng=random.Random(21)),
        clock=ManualClock(start=1_000_000.0),
    )


def make_node(name, server) -> CommunixNode:
    node = CommunixNode(
        name, None, InProcessEndpoint(server),
        dimmunix_config=make_fast_config(),
    )
    node.attach_app(
        PythonAppAdapter("twolock-app", [workloads_mod], runtime=node.runtime)
    )
    node.start()
    return node


class TestCollaborativeImmunity:
    def test_node_b_protected_without_experiencing_deadlock(self, server):
        node_a = make_node("alice", server)
        node_b = make_node("bob", server)
        try:
            # Alice deadlocks; her Dimmunix captures and uploads.
            program_a = TwoLockProgram(node_a.runtime, "e2e")
            assert program_a.run_once(collide=True).deadlocked
            assert node_a.plugin.flush()
            assert len(server.database) == 1

            # Bob downloads, warms up (first-run nested-site discovery),
            # and the agent validates + installs the signature.
            assert node_b.sync_now().stored == 1
            program_b = TwoLockProgram(node_b.runtime, "e2e")
            assert not program_b.run_once(collide=False).deadlocked
            report = node_b.start_application()
            assert report.accepted == 1
            assert len(node_b.history) == 1

            # The same colliding schedule that killed Alice is now avoided.
            result = program_b.run_once(collide=True)
            assert not result.deadlocked
            assert node_b.runtime.stats.deadlocks_detected == 0
            assert node_b.runtime.stats.avoidance_blocks >= 1
        finally:
            node_a.close()
            node_b.close()

    def test_uploaded_signature_carries_hashes(self, server):
        node_a = make_node("alice", server)
        try:
            TwoLockProgram(node_a.runtime, "hash").run_once(collide=True)
            node_a.plugin.flush()
            _, blobs, _ = server.process_get_page(0, 4096)
            from repro.core.signature import DeadlockSignature

            sig = DeadlockSignature.from_bytes(blobs[0])
            for t in sig.threads:
                assert all(f.code_hash for f in (*t.outer, *t.inner))
        finally:
            node_a.close()

    def test_signature_round_trip_is_byte_identical(self, server):
        node_a = make_node("alice", server)
        node_b = make_node("bob", server)
        try:
            TwoLockProgram(node_a.runtime, "bytes").run_once(collide=True)
            node_a.plugin.flush()
            node_b.sync_now()
            local = node_a.history.snapshot()[0]
            remote = node_b.repository.signature_at(0)
            assert local.sig_id == remote.sig_id
            assert local.to_bytes() == remote.to_bytes()
        finally:
            node_a.close()
            node_b.close()

    def test_third_node_joins_later(self, server):
        node_a = make_node("alice", server)
        try:
            TwoLockProgram(node_a.runtime, "late").run_once(collide=True)
            node_a.plugin.flush()
        finally:
            node_a.close()

        node_c = make_node("carol", server)
        try:
            node_c.sync_now()
            program = TwoLockProgram(node_c.runtime, "late")
            program.run_once(collide=False)
            report = node_c.start_application()
            assert report.accepted == 1
            assert not program.run_once(collide=True).deadlocked
        finally:
            node_c.close()

    def test_duplicate_uploads_deduplicated_at_server(self, server):
        node_a = make_node("alice", server)
        node_b = make_node("bob", server)
        try:
            # Both nodes hit the same deadlock and upload.
            for node in (node_a, node_b):
                TwoLockProgram(node.runtime, "dup").run_once(collide=True)
                node.plugin.flush()
            assert len(server.database) == 1
        finally:
            node_a.close()
            node_b.close()
