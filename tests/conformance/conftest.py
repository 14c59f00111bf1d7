"""Adversarial workloads shared by the conformance suite.

Each workload stresses a different failure mode: ``sorted`` and
``reversed`` defeat samplers that assume random arrival order,
``duplicate_heavy`` concentrates mass on a tiny alphabet (counter
eviction churn), ``zipf`` mixes a few heavy hitters with a long tail,
and ``sawtooth`` cycles values so every summary window sees the full
range (worst case for window-summary merging).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.streams.generators import GENERATORS

WORKLOADS = ("sorted", "reversed", "duplicate_heavy", "zipf", "sawtooth")


@pytest.fixture(autouse=True, params=("interpreted",))
def estimator_tier(request):
    """Label every conformance test with the one estimator tier it runs.

    Each estimator keeps a single entry store (DESIGN §16), so the suite
    runs once; the ``interpreted`` label keeps the test ids it had when a
    second tier re-ran every check.
    """
    return request.param


def make_workload(name: str, n: int, seed: int = 7) -> np.ndarray:
    """A deterministic adversarial stream of ``n`` float32 values."""
    if name in GENERATORS:
        return GENERATORS[name](n, seed=seed)
    rng = np.random.default_rng(seed)
    if name == "duplicate_heavy":
        # 8 values carry ~90% of the stream; 56 more share the rest.
        alphabet = np.arange(64, dtype=np.float32)
        weights = np.concatenate([np.full(8, 0.9 / 8),
                                  np.full(56, 0.1 / 56)])
        return rng.choice(alphabet, size=n, p=weights).astype(np.float32)
    if name == "sawtooth":
        ramp = np.arange(251, dtype=np.float32)  # prime period
        return np.tile(ramp, n // ramp.size + 1)[:n].copy()
    raise ValueError(f"unknown workload {name!r}")


def quantize(data: np.ndarray, buckets: int = 97) -> np.ndarray:
    """Map a stream onto a small alphabet for frequency oracles."""
    return np.float32(np.floor(np.abs(data)) % buckets)


def exact_counts(data: np.ndarray) -> dict[float, int]:
    """The offline frequency oracle."""
    values, counts = np.unique(data, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


@pytest.fixture(params=WORKLOADS)
def workload_name(request) -> str:
    return request.param
