#!/usr/bin/env python
"""Scenario 1 from the paper's introduction: the deadlocking browser.

"The user opens a web page, and the browser deadlocks while rendering the
content of the page, due to a Java applet. [...] Even the first occurrence
of the deadlock may have severe consequences: the browser might be in the
middle of some important operation, like purchasing an expensive product.
Therefore, a framework like Communix that prevents other users from
encountering the deadlock in the first place is beneficial."

Run:  python examples/browser_applet.py

One unlucky user (alice) hits the renderer/applet lock-order bug.  Her
signature travels through the Communix server to bob, whose browser then
refuses to walk into the same interleaving — bob completes his "purchase"
without ever having seen the bug.
"""

import repro.sim.workloads as workloads_mod
from repro.client import InProcessEndpoint
from repro.core.node import CommunixNode
from repro.core.pyapp import PythonAppAdapter
from repro.server import CommunixServer
from repro.sim.workloads import TwoLockProgram


def browser_node(name: str, endpoint) -> CommunixNode:
    node = CommunixNode(name, None, endpoint)
    node.attach_app(
        PythonAppAdapter("browser-9.0", [workloads_mod], runtime=node.runtime)
    )
    node.start()
    return node


def main() -> None:
    server = CommunixServer()
    endpoint = InProcessEndpoint(server)

    print("=== alice opens the page first ===")
    alice = browser_node("alice", endpoint)
    # The renderer thread takes DOM-lock then applet-lock; the applet thread
    # takes them in the opposite order: the classic bug.
    alice_browser = TwoLockProgram(alice.runtime, "page-render")
    result = alice_browser.run_once(collide=True)
    print(f"alice's browser deadlocked: {result.deadlocked} "
          "(she loses her shopping cart...)")
    alice.plugin.flush()
    print(f"signature uploaded; server database now holds "
          f"{len(server.database)} signature(s)")

    print("\n=== bob opens the same page later that day ===")
    bob = browser_node("bob", endpoint)
    downloaded = bob.sync_now()
    print(f"bob's Communix client downloaded {downloaded.stored} new signature(s)")

    bob_browser = TwoLockProgram(bob.runtime, "page-render")
    # First-run warm-up discovers the browser's nested lock sites, then the
    # agent validates and installs the downloaded signature.
    bob_browser.run_once(collide=False)
    report = bob.start_application()
    print(f"bob's agent accepted {report.accepted} signature(s) "
          f"(rejected: {report.rejected_total})")

    result = bob_browser.run_once(collide=True)
    print(f"bob's browser deadlocked: {result.deadlocked}; "
          f"purchase completed by threads {sorted(result.completed)}")
    print(f"avoidance quietly serialized the dangerous interleaving "
          f"({bob.runtime.stats.avoidance_blocks} suspension(s))")
    assert not result.deadlocked
    assert bob.runtime.stats.deadlocks_detected == 0

    print("\nbob never experienced the deadlock: collaborative immunity works")
    alice.close()
    bob.close()


if __name__ == "__main__":
    main()
