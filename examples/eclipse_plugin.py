#!/usr/bin/env python
"""Scenario 2 from the paper's introduction: the deadlock-prone IDE plugin.

"A deadlock-prone version of a plugin is released for the Eclipse IDE,
which makes Eclipse hang.  If the plugin has multiple deadlock bugs, each
user has to encounter all these deadlocks for Dimmunix to be able to avoid
them.  Sharing the signatures of the deadlocks with users who just
installed the plugin is useful; these users will not experience any
deadlocks while using the plugin if all deadlocks have already been
encountered by some users."

Run:  python examples/eclipse_plugin.py

The plugin ships *two* independent deadlock bugs.  alice trips over bug #1,
carol over bug #2 — each is protected only against the bug she saw.  dave
installs the plugin after syncing with the Communix server and is immune to
both from his very first session.
"""

import repro.sim.workloads as workloads_mod
from repro.client import InProcessEndpoint
from repro.core.node import CommunixNode
from repro.core.pyapp import PythonAppAdapter
from repro.server import CommunixServer
from repro.sim.workloads import DiningPhilosophers, TwoLockProgram


def ide_node(name: str, endpoint) -> CommunixNode:
    node = CommunixNode(name, None, endpoint)
    node.attach_app(
        PythonAppAdapter("eclipse+plugin-1.0", [workloads_mod],
                         runtime=node.runtime)
    )
    node.start()
    return node


def plugin_bugs(node: CommunixNode) -> dict:
    """The plugin's two distinct deadlock bugs.

    They live in *different code paths* (an AB/BA ordering bug in the
    refactoring engine, a circular fork-grab in the build scheduler), so
    they produce distinct signatures — one per bug, as §III-D intends.
    """
    return {
        "refactor-vs-index": TwoLockProgram(node.runtime, "refactor"),
        "build-scheduler-cycle": DiningPhilosophers(node.runtime, seats=3),
    }


def main() -> None:
    server = CommunixServer()
    endpoint = InProcessEndpoint(server)

    print("=== alice hits bug #1 (refactoring while indexing) ===")
    alice = ide_node("alice", endpoint)
    alice_bugs = plugin_bugs(alice)
    result = alice_bugs["refactor-vs-index"].run_once(collide=True)
    print(f"alice's IDE hung: {result.deadlocked}")
    alice.plugin.flush()

    print("\n=== carol hits bug #2 (circular wait in the build scheduler) ===")
    carol = ide_node("carol", endpoint)
    carol_bugs = plugin_bugs(carol)
    for _ in range(5):  # the 3-way cycle needs the right interleaving
        result = carol_bugs["build-scheduler-cycle"].run_once(collide=True)
        if result.deadlock_errors:
            break
    print(f"carol's IDE hung: {result.deadlocked}")
    carol.plugin.flush()

    print(f"\nserver database: {len(server.database)} signatures "
          "(one per bug)")

    print("\n=== dave installs the plugin fresh ===")
    dave = ide_node("dave", endpoint)
    downloaded = dave.sync_now()
    print(f"dave downloaded {downloaded.stored} signatures")
    dave_bugs = plugin_bugs(dave)
    # Warm-up session discovers the nested lock sites, then the agent
    # validates both signatures against dave's plugin version.
    for program in dave_bugs.values():
        program.run_once(collide=False)
    report = dave.start_application()
    print(f"dave's agent accepted {report.accepted}/2 signatures; "
          f"history size {len(dave.history)}")

    for bug_name, program in dave_bugs.items():
        result = program.run_once(collide=True)
        status = "DEADLOCK" if result.deadlocked else "clean"
        print(f"  dave exercises {bug_name}: {status}")
        assert not result.deadlock_errors
        assert dave.runtime.stats.deadlocks_detected == 0

    print(f"\ndave suffered {dave.runtime.stats.deadlocks_detected} deadlocks "
          f"while being protected {dave.runtime.stats.avoidance_blocks} time(s)")
    print("full protection from day one: OK")
    for node in (alice, carol, dave):
        node.close()


if __name__ == "__main__":
    main()
