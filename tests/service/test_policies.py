"""ServicePolicies: validation, immutability, and the serve-flag path."""

import argparse
import dataclasses

import pytest

from repro.errors import ServiceError
from repro.service import DEFAULT_POLICIES, ServicePolicies
from repro.service.resilience import RetryPolicy


class TestValidation:
    def test_defaults_are_valid_and_canonical(self):
        assert DEFAULT_POLICIES == ServicePolicies()
        assert DEFAULT_POLICIES.takeover is True

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ServicePolicies().max_restarts = 5

    @pytest.mark.parametrize("bad", [
        dict(breaker_failure_threshold=0),
        dict(breaker_cooldown_batches=0),
        dict(max_restarts=-1),
        dict(snapshot_every=0),
        dict(max_inflight_batches=-1),
        dict(max_inflight_batches=0),
        dict(ready_timeout=0.0),
        dict(heartbeat_interval=0.0),
        dict(liveness_timeout=-1.0),
        dict(io_deadline=0.0),
        dict(connect_timeout=0.0),
        dict(reconnect_deadline=0.0),
    ])
    def test_out_of_range_values_rejected(self, bad):
        with pytest.raises(ServiceError):
            ServicePolicies(**bad)

    def test_breaker_pair_matches_fields(self):
        policies = ServicePolicies(breaker_failure_threshold=5,
                                   breaker_cooldown_batches=9)
        assert policies.breaker == (5, 9)

    def test_reconnect_is_an_independent_backoff_schedule(self):
        policies = ServicePolicies()
        assert isinstance(policies.reconnect, RetryPolicy)
        # network-scale, not the microsecond dispatch retry
        assert policies.reconnect.base_delay > policies.retry.base_delay


class TestServeFlags:
    """``repro serve`` flags map onto one ServicePolicies bundle."""

    def _args(self, **overrides):
        base = dict(snapshot_every=None, max_restarts=None,
                    heartbeat_interval=None, liveness_timeout=None,
                    io_deadline=None, no_takeover=False)
        base.update(overrides)
        return argparse.Namespace(**base)

    def test_no_flags_means_no_override(self):
        from repro.cli import _build_policies
        assert _build_policies(self._args()) is None

    def test_each_flag_lands_on_its_field(self):
        from repro.cli import _build_policies
        policies = _build_policies(self._args(
            snapshot_every=8, max_restarts=0, heartbeat_interval=0.1,
            liveness_timeout=3.0, io_deadline=5.0, no_takeover=True))
        assert policies.snapshot_every == 8
        assert policies.max_restarts == 0
        assert policies.heartbeat_interval == 0.1
        assert policies.liveness_timeout == 3.0
        assert policies.io_deadline == 5.0
        assert policies.takeover is False
        # untouched knobs keep their defaults
        assert policies.retry == DEFAULT_POLICIES.retry

    def test_invalid_flag_value_raises_service_error(self):
        from repro.cli import _build_policies
        with pytest.raises(ServiceError):
            _build_policies(self._args(snapshot_every=0))

    def test_serve_parser_accepts_the_policy_flags(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["serve", "--snapshot-every", "8", "--max-restarts", "1",
             "--no-takeover"])
        assert args.snapshot_every == 8
        assert args.max_restarts == 1
        assert args.no_takeover is True
