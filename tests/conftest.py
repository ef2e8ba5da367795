"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.appmodel import PRESETS, SignatureFactory, generate_application
from repro.dimmunix import DimmunixRuntime
from repro.util.clock import ManualClock


@pytest.fixture
def runtime() -> DimmunixRuntime:
    return DimmunixRuntime()


@pytest.fixture
def manual_clock() -> ManualClock:
    # Start well inside a "day" so quota-day boundaries are predictable.
    return ManualClock(start=1_000_000.0)


@pytest.fixture(scope="session")
def shared_app():
    """A small JBoss-like app model, shared read-only across tests."""
    return generate_application(PRESETS["jboss"], scale=0.05)


@pytest.fixture(scope="session")
def shared_factory(shared_app) -> SignatureFactory:
    return SignatureFactory(shared_app, seed=42)


@pytest.fixture
def fresh_app():
    """A function-scoped app model for tests that mutate it."""
    return generate_application(PRESETS["limewire"], scale=0.05)
