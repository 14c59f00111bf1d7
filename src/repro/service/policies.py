"""One tunable home for every executor's resilience policy.

Retry backoff, circuit-breaker thresholds, snapshot cadence, restart
budgets, the worker pools' in-flight window and the network executor's
deadline/heartbeat/reconnect knobs all live in
:class:`ServicePolicies`: a single frozen dataclass that the
in-process, multiprocess, and network pools all consume through their
``policies=`` argument — the only way to set each — and that
``repro serve`` exposes as flags.

The dataclass is deliberately *policy only*: it carries numbers, not
behaviour.  Mechanisms stay where they were (:class:`RetryPolicy` and
:class:`CircuitBreaker` in :mod:`~repro.service.resilience`, the
ack/replay protocol in :mod:`~repro.service.worker_pool`); the policies
object just decides how hard each mechanism tries before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ServiceError
from .resilience import RetryPolicy

__all__ = ["DEFAULT_POLICIES", "ServicePolicies"]

#: acks between internal worker snapshots (bounds the replay log).
SNAPSHOT_EVERY = 64

#: seconds a freshly spawned worker gets to come up before the pool
#: declares the start failed.
READY_TIMEOUT = 120.0


def _default_reconnect() -> RetryPolicy:
    # Jittered exponential backoff for a worker redialing its parent:
    # network-scale delays (tens to hundreds of milliseconds), unlike
    # the microsecond-scale dispatch retry tuned for the simulator.
    return RetryPolicy(max_attempts=10, base_delay=0.05, multiplier=2.0,
                       max_delay=0.5, jitter=0.5)


@dataclass(frozen=True)
class ServicePolicies:
    """Every executor tuning knob, in one frozen bundle.

    Shared by all executors
    -----------------------
    retry:
        Backoff policy for transiently faulted dispatch batches (the
        :class:`~repro.service.resilience.ShardGuard` input).
    breaker_failure_threshold / breaker_cooldown_batches:
        Circuit-breaker tuning (see
        :class:`~repro.service.resilience.CircuitBreaker`).
    max_restarts:
        Worker deaths tolerated per shard before the shard is declared
        permanently failed (mp) or its keyspace is taken over (net).
    snapshot_every:
        Acks between internal worker snapshots; bounds both the replay
        log and the data at risk on a worker death.
    max_inflight_batches:
        Worker-pool backpressure (mp and net): unacknowledged batches
        allowed on one link before dispatch blocks on acks.  It also
        caps the acks a worker can queue behind a parent blocked on a
        full pipe or socket.
    ready_timeout:
        Seconds a spawned worker gets to report ready/hello.

    Network executor only
    ---------------------
    heartbeat_interval:
        Seconds between worker heartbeats while idle.
    liveness_timeout:
        Parent-side silence budget: no frame from a worker for this
        many seconds (while the parent is actively waiting on it)
        declares the connection dead.  Must exceed the worst single
        batch compute time — a busy worker cannot heartbeat mid-sort.
    io_deadline:
        Per-connection deadline on a single framed send or request
        round-trip; a blocked socket past this is a dead link, not a
        slow one.
    connect_timeout:
        Worker-side dial timeout per attempt.
    reconnect:
        Worker-side jittered backoff between redial attempts after a
        connection loss (a :class:`RetryPolicy`, reused as pure
        backoff schedule).
    reconnect_deadline:
        Parent-side window to wait for a live worker to redial before
        escalating to a supervised restart.
    takeover:
        When a shard exhausts its restart budget, reassign its keyspace
        to the surviving shards from its last snapshot + replay log
        instead of failing the pool (the net executor's degradation
        mode; ``False`` restores the mp executor's fail-stop shape).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 3
    breaker_cooldown_batches: int = 16
    max_restarts: int = 2
    snapshot_every: int = SNAPSHOT_EVERY
    max_inflight_batches: int = 64
    ready_timeout: float = READY_TIMEOUT
    heartbeat_interval: float = 0.5
    liveness_timeout: float = 15.0
    io_deadline: float = 30.0
    connect_timeout: float = 10.0
    reconnect: RetryPolicy = field(default_factory=_default_reconnect)
    reconnect_deadline: float = 5.0
    takeover: bool = True

    def __post_init__(self) -> None:
        if self.breaker_failure_threshold < 1:
            raise ServiceError(
                "breaker_failure_threshold must be >= 1, got "
                f"{self.breaker_failure_threshold}")
        if self.breaker_cooldown_batches < 1:
            raise ServiceError(
                "breaker_cooldown_batches must be >= 1, got "
                f"{self.breaker_cooldown_batches}")
        if self.max_restarts < 0:
            raise ServiceError(
                f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.snapshot_every < 1:
            raise ServiceError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if self.max_inflight_batches < 1:
            raise ServiceError(
                "max_inflight_batches must be >= 1, got "
                f"{self.max_inflight_batches}")
        for name in ("ready_timeout", "heartbeat_interval",
                     "liveness_timeout", "io_deadline", "connect_timeout",
                     "reconnect_deadline"):
            if getattr(self, name) <= 0:
                raise ServiceError(
                    f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def breaker(self) -> tuple[int, int]:
        """Constructor args for a :class:`CircuitBreaker`."""
        return (self.breaker_failure_threshold,
                self.breaker_cooldown_batches)


#: The canonical defaults every pool resolves against when no explicit
#: override is given.
DEFAULT_POLICIES = ServicePolicies()
