"""CommunixNode facade tests."""

import random
import threading

import pytest

import repro.sim.workloads as workloads_mod
from repro.client.endpoints import InProcessEndpoint
from repro.core.node import CommunixNode
from repro.core.pyapp import PythonAppAdapter
from repro.crypto.userid import UserIdAuthority
from repro.server.server import CommunixServer
from repro.util.clock import ManualClock


@pytest.fixture
def server():
    return CommunixServer(
        authority=UserIdAuthority(rng=random.Random(14)),
        clock=ManualClock(start=1_000_000.0),
    )


def test_node_wires_all_components(server):
    node = CommunixNode("n1", None, InProcessEndpoint(server))
    try:
        assert node.history is node.runtime.history
        assert node.client.repository is node.repository
        assert node.user_token  # registered with the server
        decoded = server.authority.decode(node.user_token)
        assert decoded.user_id >= 1
    finally:
        node.close()


def test_locks_bound_to_node_runtime(server):
    node = CommunixNode("n2", None, InProcessEndpoint(server))
    try:
        node.start()
        with node.lock("a"):
            pass
        with node.rlock("r"):
            pass
        assert node.runtime.stats.acquisitions == 2
    finally:
        node.close()


def test_attach_app_rewires_agent_and_plugin(server):
    node = CommunixNode("n3", None, InProcessEndpoint(server))
    try:
        adapter = PythonAppAdapter("app", [workloads_mod],
                                   runtime=node.runtime)
        node.attach_app(adapter)
        assert node.app is adapter
        assert node.agent._app is adapter
    finally:
        node.close()


def test_context_manager_protocol(server):
    node = CommunixNode("n4", None, InProcessEndpoint(server))
    before = set(threading.enumerate())
    with node:
        # Entering starts no thread: detection runs inside lock operations.
        assert set(threading.enumerate()) <= before
        program = workloads_mod.TwoLockProgram(node.runtime, "ctx")
        assert program.run_once(collide=True).deadlocked
        assert len(node.history) == 1


def test_data_dir_layout(tmp_path, server, shared_factory):
    token = server.issue_user_token()
    server.process_add(shared_factory.make_valid().to_bytes(), token)
    node = CommunixNode("n5", None, InProcessEndpoint(server),
                        data_dir=tmp_path / "node5")
    try:
        node.sync_now()
        repository = tmp_path / "node5" / "repository"
        assert (repository / "segment-00000000.cxlog").is_file()
        assert (repository / "state.json").is_file()
    finally:
        node.close()


def test_start_application_without_app_start_method(server):
    node = CommunixNode("n6", None, InProcessEndpoint(server))
    try:
        adapter = PythonAppAdapter("app", [workloads_mod],
                                   runtime=node.runtime)
        node.attach_app(adapter)
        report = node.start_application()  # adapter has no .start(); fine
        assert report.inspected == 0
    finally:
        node.close()
