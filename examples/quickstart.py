#!/usr/bin/env python
"""Quickstart: deadlock immunity for a Python program in ~40 lines.

Run:  python examples/quickstart.py

The program has a classic AB/BA deadlock bug.  On the first run Dimmunix
detects the deadlock, extracts its signature (outer + inner call stacks),
and saves it in the history.  Every later run with the same history is
steered around the bug: the same colliding schedule completes cleanly.
"""

from repro.dimmunix import DimmunixRuntime
from repro.dimmunix.events import EventKind
from repro.sim.workloads import TwoLockProgram


def main() -> None:
    runtime = DimmunixRuntime()
    runtime.events.subscribe(
        lambda e: print(f"  [dimmunix] {e.kind.value} {e.payload}")
    )

    program = TwoLockProgram(runtime, "quickstart")

    print("=== run 1: the program deadlocks ===")
    result = program.run_once(collide=True)
    print(f"deadlocked: {result.deadlocked}; "
          f"{len(result.deadlock_errors)} thread(s) aborted as victim")
    signature = runtime.history.snapshot()[0]
    print(f"captured signature {signature.sig_id} with "
          f"{len(signature.threads)} threads:")
    for thread in signature.threads:
        print(f"  outer lock statement: {thread.outer.top}")
        print(f"  inner lock statement: {thread.inner.top}")

    print("\n=== run 2: same schedule, now immune ===")
    result = program.run_once(collide=True)
    print(f"deadlocked: {result.deadlocked}; completed: {sorted(result.completed)}")
    print(f"avoidance suspensions: {runtime.stats.avoidance_blocks}")
    assert not result.deadlocked

    print("\n=== run it five more times for good measure ===")
    for i in range(5):
        result = program.run_once(collide=True)
        assert not result.deadlocked, "immunity must hold"
        print(f"  run {i + 3}: clean ({sorted(result.completed)})")

    warnings = runtime.events.count(EventKind.FALSE_POSITIVE_WARNING)
    print(f"\nfalse-positive warnings so far: {warnings}")
    print("deadlock immunity: OK")


if __name__ == "__main__":
    main()
