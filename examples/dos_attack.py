#!/usr/bin/env python
"""The §IV-B attacker, end to end — and every line of defence that stops him.

Run:  python examples/dos_attack.py

Mallory wants to slow down everyone's application by feeding Dimmunix fake
deadlock signatures.  Communix contains the attack in layers:

1. the server only talks to holders of encrypted user IDs (forged tokens
   are rejected outright);
2. each ID lands at most 10 signatures per day;
3. two signatures from the same ID sharing *some but not all* top frames
   ("adjacent") are rejected — collapsing the forgeable space to at most
   one signature per nested synchronized block;
4. the victim's agent rejects anything whose hashes don't match the app,
   whose outer stacks are shallower than 5 frames, or whose outer stacks
   don't end in a *nested* synchronized block.
"""

import random

from repro.appmodel import PRESETS, SignatureFactory, generate_application
from repro.client.client import CommunixClient
from repro.client.endpoints import InProcessEndpoint
from repro.core.agent import CommunixAgent
from repro.core.history import DeadlockHistory
from repro.core.repository import LocalRepository
from repro.server import CommunixServer
from repro.util.clock import ManualClock


def main() -> None:
    clock = ManualClock(start=1_000_000.0)
    server = CommunixServer(clock=clock)
    app = generate_application(PRESETS["jboss"], scale=0.1)
    app.nested_sync_sites()
    factory = SignatureFactory(app, seed=1)

    print("=== layer 1: forged tokens ===")
    rng = random.Random(7)
    rejected = 0
    for _ in range(10):
        fake_token = "".join(rng.choice("0123456789abcdef") for _ in range(96))
        outcome = server.process_add(factory.make_valid().to_bytes(), fake_token)
        rejected += (not outcome.accepted)
    print(f"10 uploads with manufactured tokens -> {rejected} rejected")

    print("\n=== layer 2: the daily quota ===")
    token = server.issue_user_token()  # mallory got one real ID
    accepted = 0
    for _ in range(50):
        sig = factory.make_foreign()  # fakes that are at least well-formed
        if server.process_add(sig.to_bytes(), token).accepted:
            accepted += 1
    print(f"50 uploads from one ID in one day -> {accepted} accepted "
          f"(limit {server.quota.limit})")

    print("\n=== layer 3: adjacency ===")
    token2 = server.issue_user_token()
    base, adjacent_sig = factory.make_adjacent_pair()
    first = server.process_add(base.to_bytes(), token2)
    second = server.process_add(adjacent_sig.to_bytes(), token2)
    print(f"signature A accepted: {first.accepted}; "
          f"adjacent signature B from the same ID: {second.verdict}")

    print("\n=== layer 4: client-side validation at the victim ===")
    # Whatever made it into the database reaches the victim's repository...
    repo = LocalRepository()
    client = CommunixClient(endpoint=InProcessEndpoint(server),
                            repository=repo, clock=clock)
    downloaded = client.poll_once()
    print(f"victim downloaded {downloaded.stored} signatures")
    # ...plus a fresh batch mallory uploads from many stolen IDs:
    attack_batch = (
        [factory.make_shallow(depth=d) for d in (1, 2, 3, 4)]
        + [factory.make_bad_hash() for _ in range(4)]
        + [factory.make_non_nested() for _ in range(4)]
    )
    repo.append_from_server(attack_batch)

    history = DeadlockHistory()
    agent = CommunixAgent(app, history, repo)
    report = agent.on_application_start()
    print(f"agent inspected {report.inspected}: accepted {report.accepted}, "
          f"rejected {report.rejected}")
    print(f"history after the attack: {len(history)} signatures "
          f"(outer tops limited to the app's "
          f"{len(app.nested_sync_sites())} nested sync blocks)")

    print("\nworst case damage is bounded: Table II measures it at 8-40% "
          "overhead (see benchmarks/bench_table2_dos_overhead.py)")


if __name__ == "__main__":
    main()
