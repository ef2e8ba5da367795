"""Attack-forging tests (§IV-B) and DoS containment at validation time."""

import pytest

from repro.core.validation import ClientSideValidator, RejectReason
from repro.dimmunix.config import DimmunixConfig
from repro.dimmunix.runtime import DimmunixRuntime
from repro.sim.apps import APP_WORKLOADS, AppWorkload, dimmunix_lock_factory
from repro.sim.attack import forge_critical_path_signatures, forge_off_path_signatures


@pytest.fixture
def samples():
    config = DimmunixConfig(record_acquisition_stacks=True)
    runtime = DimmunixRuntime(config=config)
    spec = APP_WORKLOADS["jboss_rubis"].scaled(0.05)
    workload = AppWorkload(spec, dimmunix_lock_factory(runtime))
    return workload.sample_stacks(runtime, ops=300)


class TestCriticalPathForging:
    def test_forges_requested_count(self, samples):
        sigs = forge_critical_path_signatures(samples, count=10, depth=5)
        assert 1 <= len(sigs) <= 10
        for sig in sigs:
            assert all(t.outer.depth <= 5 for t in sig.threads)

    def test_deeper_suffixes_available(self, samples):
        sigs = forge_critical_path_signatures(samples, count=5, depth=3)
        assert all(t.outer.depth <= 3 for s in sigs for t in s.threads)

    def test_signatures_reference_real_code(self, samples):
        sigs = forge_critical_path_signatures(samples, count=5, depth=5)
        for sig in sigs:
            for t in sig.threads:
                assert t.outer.top.class_name == "repro.sim.apps"

    def test_needs_at_least_two_samples(self):
        with pytest.raises(ValueError):
            forge_critical_path_signatures([], count=5)

    def test_deterministic_for_seed(self, samples):
        a = forge_critical_path_signatures(samples, count=8, seed=3)
        b = forge_critical_path_signatures(samples, count=8, seed=3)
        assert [s.sig_id for s in a] == [s.sig_id for s in b]


class TestOffPathForging:
    def test_off_path_signatures_never_match_app(self):
        sigs = forge_off_path_signatures(count=10)
        assert len(sigs) == 10
        for sig in sigs:
            assert all(
                f.class_name == "ghost.module" for t in sig.threads for f in t.outer
            )


class TestValidationContainsShallowAttacks:
    """§III-C1: the agent refuses outer call stacks of depth < 5, which is
    what blocks the '>100% overhead' depth-1 attack."""

    def test_depth_one_attack_rejected_by_agent(self, shared_app, samples):
        validator = ClientSideValidator(shared_app)
        shallow = forge_critical_path_signatures(samples, count=5, depth=1)
        for sig in shallow:
            result = validator.validate(sig)
            assert not result.accepted
            # These stacks reference the workload module, not the app model,
            # so they fail the hash check first; depth-1 sigs against the
            # right app fail TOO_SHALLOW (covered in validation tests).
            assert result.reason in (
                RejectReason.HASH_MISMATCH,
                RejectReason.TOO_SHALLOW,
            )

    def test_nested_block_bound_caps_acceptance(self, shared_app, shared_factory):
        """'An attacker cannot provide more than N signatures that get
        accepted' where N = number of nested sync blocks: every accepted
        signature's outer tops must be nested sites."""
        validator = ClientSideValidator(shared_app)
        nested = shared_app.nested_sync_sites()
        for _ in range(20):
            sig = shared_factory.make_valid()
            result = validator.validate(sig)
            assert result.accepted
            for t in result.signature.threads:
                assert t.outer.top.location in nested
