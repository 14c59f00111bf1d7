"""Retry, backoff, and circuit breaking for the shard dispatch path.

The GPU is a co-processor behind a bus; the fault model
(:mod:`repro.gpu.faults`) says any transfer or render pass may fail
*transiently*.  The engine makes a failed batch perfectly retryable
(:meth:`StreamMiner.pump` is transactional), so the service's job is
policy, not mechanism:

* :class:`RetryPolicy` — how many times to retry a faulted batch and
  how long to wait between attempts (exponential backoff with seeded
  jitter, so concurrent shards don't retry in lockstep);
* :class:`CircuitBreaker` — when to stop trusting the GPU path
  entirely.  After ``failure_threshold`` consecutive faulted batches
  the breaker *opens* and the shard degrades to the CPU fallback that
  :func:`repro.backends.cpu_fallback_for` resolved from the backend
  registry when the shard was built — the sorted output is identical,
  only the cost model differs, so degradation is invisible to every
  epsilon guarantee.  (Only the simulated-GPU sorter earns a fallback;
  a custom registered backend without one escalates instead.)  After
  ``cooldown_batches`` successful fallback batches the breaker goes
  *half-open* and probes the GPU once: success closes it, another
  fault re-opens it.

Both are deliberately deterministic given their seeds/counters — no
wall-clock reads — so failure scenarios replay exactly in tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ServiceError, ShardFailedError
from ..gpu.faults import TRANSIENT_GPU_ERRORS
from ..obs import collector

__all__ = ["CircuitBreaker", "RetryPolicy", "ShardGuard",
           "TRANSIENT_GPU_ERRORS"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient dispatch faults.

    Parameters
    ----------
    max_attempts:
        Total tries per batch (first attempt included) before the
        dispatch escalates to the fallback backend for that batch.
    base_delay / multiplier / max_delay:
        Attempt ``k`` (1-based) sleeps
        ``min(base_delay * multiplier**(k-1), max_delay)`` seconds
        before the jitter is applied.  The defaults are tuned for the
        in-process simulator — milliseconds, not the seconds a remote
        service would use.
    jitter:
        Fraction of the delay randomized: the actual sleep is drawn
        uniformly from ``[delay * (1 - jitter), delay]``.
    """

    max_attempts: int = 4
    base_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.05
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ServiceError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ServiceError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ServiceError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Jittered sleep before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ServiceError(f"attempt must be >= 1, got {attempt}")
        ceiling = min(self.base_delay * self.multiplier ** (attempt - 1),
                      self.max_delay)
        floor = ceiling * (1.0 - self.jitter)
        return float(floor + (ceiling - floor) * rng.random())


class CircuitBreaker:
    """Per-shard GPU-trust state machine: closed -> open -> half-open.

    ``closed``: the primary (GPU) backend is used.  Each *batch* that
    ultimately fails on the primary counts one failure; a batch that
    succeeds resets the count.  ``failure_threshold`` consecutive
    failures open the breaker.

    ``open``: the fallback (CPU) backend is used.  Every successful
    fallback batch counts toward ``cooldown_batches``; when the budget
    is spent the breaker half-opens.

    ``half-open``: the next batch probes the primary once.  Success
    closes the breaker; a fault re-opens it with a fresh cooldown.

    Counters, not clocks, drive every transition — scenarios replay
    deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 3,
                 cooldown_batches: int = 16):
        if failure_threshold < 1:
            raise ServiceError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown_batches < 1:
            raise ServiceError(
                f"cooldown_batches must be >= 1, got {cooldown_batches}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_batches = int(cooldown_batches)
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self._cooldown_left = 0

    def allow_primary(self) -> bool:
        """Should the next batch try the primary (GPU) backend?"""
        return self.state != self.OPEN

    def record_success(self, *, primary: bool) -> None:
        """Account one batch that completed on the given backend."""
        if primary:
            # A primary success closes a half-open breaker and clears
            # the failure streak.
            self.state = self.CLOSED
            self.consecutive_failures = 0
        elif self.state == self.OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left <= 0:
                self.state = self.HALF_OPEN

    def record_failure(self) -> None:
        """Account one batch that exhausted its retries on the primary."""
        self.consecutive_failures += 1
        if (self.state == self.HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            self.state = self.OPEN
            self.opens += 1
            self._cooldown_left = self.cooldown_batches


class ShardGuard:
    """Retry + circuit-breaking + degradation around one shard's engine.

    This is the per-shard dispatch policy extracted into a reusable
    object so *every* executor applies it identically: the in-process
    :class:`~repro.service.sharded.ShardedMiner` holds one guard per
    shard, and each mp/net worker
    (:class:`~repro.service.worker_pool.ShardWorker`) holds one around
    its private miner — degradation semantics do not depend on where
    the shard lives.

    ``step`` callables passed to :meth:`run` must be transactional
    (:meth:`StreamMiner.pump` / :meth:`StreamMiner.flush` are): a
    transient fault leaves the engine untouched so re-running the step
    is exactly a retry of the failed texture batch.  Policy:

    1. breaker open -> run directly on the CPU fallback (degraded);
    2. otherwise try the primary, sleeping a jittered backoff after
       each transient fault, up to ``retry.max_attempts`` tries;
    3. retries exhausted -> count a breaker failure and run this batch
       on the fallback anyway (no batch is ever dropped);
    4. no fallback exists (already-CPU shard) -> escalate to
       :class:`~repro.errors.ShardFailedError`.
    """

    def __init__(self, shard_id: int, miner, primary, fallback,
                 retry: RetryPolicy, breaker: CircuitBreaker,
                 rng: np.random.Generator, metrics):
        self.shard_id = int(shard_id)
        self.miner = miner
        self.primary = primary
        self.fallback = fallback
        self.retry = retry
        self.breaker = breaker
        self.rng = rng
        #: duck-typed :class:`~repro.service.metrics.ShardMetrics`
        #: (faults / retries / degraded_batches / breaker_state /
        #: last_error are the attributes written here).
        self.metrics = metrics

    def run(self, step) -> None:
        """Run one faultable engine step under the full policy."""
        shard = self.metrics
        breaker = self.breaker
        try:
            use_primary = self.fallback is None or breaker.allow_primary()
            if use_primary:
                self.miner.swap_sorter(self.primary)
                attempt = 1
                while True:
                    try:
                        step()
                        breaker.record_success(primary=True)
                        return
                    except TRANSIENT_GPU_ERRORS as exc:
                        shard.faults += 1
                        shard.last_error = repr(exc)
                        if attempt >= self.retry.max_attempts:
                            breaker.record_failure()
                            if self.fallback is None:
                                raise ShardFailedError(
                                    self.shard_id,
                                    f"shard {self.shard_id}: retries "
                                    "exhausted and no fallback backend"
                                ) from exc
                            break
                        time.sleep(self.retry.delay(attempt, self.rng))
                        shard.retries += 1
                        attempt += 1
            # Degraded path: breaker open, or this batch exhausted its
            # retries on the primary.
            self.miner.swap_sorter(self.fallback)
            col = collector()
            if col.enabled:
                col.record("service.degrade", 0.0, shard=self.shard_id,
                           breaker=breaker.state)
            try:
                step()
            except Exception as exc:
                shard.last_error = repr(exc)
                raise ShardFailedError(
                    self.shard_id,
                    f"shard {self.shard_id} failed on the fallback "
                    f"backend too: {exc!r}") from exc
            shard.degraded_batches += 1
            breaker.record_success(primary=False)
        finally:
            shard.breaker_state = breaker.state
