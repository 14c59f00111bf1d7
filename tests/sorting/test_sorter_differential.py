"""Differential sorter equivalence: every backend vs ``np.sort``.

The registry promises that backends can only change *cost*, never
answers.  This suite enforces that promise differentially: every
registered backend sorts the same windows as ``np.sort`` and must agree

* element-for-element (``array_equal`` with ``equal_nan``),
* on NaN placement (same positions hold NaNs), and
* on the exact bit patterns of the non-NaN, non-zero elements as a
  multiset — so values cannot be silently rebuilt with different
  payloads.  (NaN and signed-zero bit patterns are excluded because
  ``np.sort`` itself is not bit-stable for them: it normalizes NaN
  sign bits, and its SIMD kernels may rewrite ``-0.0`` to ``+0.0``
  via min/max operations.)

Backends declare their input domain in ``CONTRACTS``; a registry
coverage guard fails loudly when a new backend is registered without
enrolling here, so future backends are fuzzed automatically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import registered_backends, resolve_sorter
from repro.errors import SortError


class Contract:
    """What a backend accepts and how its output maps to ``np.sort``."""

    def __init__(self, finite_only: bool = False, quantize=None):
        self.finite_only = finite_only
        #: maps the input to what the backend is specified to sort
        #: (gpu-16 sorts the float16 round-trip of its input).
        self.quantize = quantize or (lambda arr: arr)


def _f16_roundtrip(arr: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return arr.astype(np.float16).astype(np.float32)


CONTRACTS: dict[str, Contract] = {
    "cpu": Contract(),
    "cpu-quicksort": Contract(),
    "gpu": Contract(finite_only=True),
    "gpu-pbsn": Contract(finite_only=True),
    "gpu-bitonic": Contract(finite_only=True),
    "gpu-16": Contract(finite_only=True, quantize=_f16_roundtrip),
}

ALL_BACKENDS = tuple(registered_backends())
CPU_BACKENDS = tuple(n for n in ALL_BACKENDS
                     if n in CONTRACTS and not CONTRACTS[n].finite_only)


def assert_matches_np_sort(out: np.ndarray, data: np.ndarray) -> None:
    """The three-part differential contract against ``np.sort``."""
    reference = np.sort(data)
    out = np.asarray(out, dtype=np.float32)
    assert out.shape == reference.shape
    assert np.array_equal(out, reference, equal_nan=True)
    assert np.array_equal(np.isnan(out), np.isnan(reference))
    keep = ~np.isnan(out) & (out != 0)
    assert np.array_equal(np.sort(out[keep].view(np.uint32)),
                          np.sort(reference[keep].view(np.uint32)))


def backend_sort(name: str, data: np.ndarray) -> np.ndarray:
    sorter = resolve_sorter(name)
    if hasattr(sorter, "sort"):
        return sorter.sort(data)
    return sorter.sort_batch([data])[0]


class TestRegistryCoverage:
    def test_every_registered_backend_has_a_contract(self):
        missing = [n for n in registered_backends() if n not in CONTRACTS]
        assert not missing, (
            f"backends {missing} are registered but not enrolled in the "
            "differential suite — add a Contract entry so they are "
            "fuzzed against np.sort")

    def test_no_stale_contracts(self):
        stale = [n for n in CONTRACTS if n not in registered_backends()]
        assert not stale, f"contracts for unregistered backends: {stale}"


finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
any32 = st.floats(allow_nan=True, allow_infinity=True, width=32)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
@settings(max_examples=40, deadline=None)
@given(values=st.lists(finite32, min_size=0, max_size=200))
def test_finite_windows_match_np_sort(backend, values):
    data = np.array(values, dtype=np.float32)
    out = backend_sort(backend, data)
    assert_matches_np_sort(out, CONTRACTS[backend].quantize(data))


@pytest.mark.parametrize("backend", CPU_BACKENDS)
@settings(max_examples=40, deadline=None)
@given(values=st.lists(any32, min_size=0, max_size=200))
def test_nan_and_inf_windows_match_np_sort(backend, values):
    data = np.array(values, dtype=np.float32)
    out = backend_sort(backend, data)
    assert_matches_np_sort(out, data)


@pytest.mark.parametrize("backend", CPU_BACKENDS)
@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, float("nan")]),
    min_size=0, max_size=150))
def test_duplicate_heavy_windows(backend, values):
    """Duplicates, signed zeros, infinities and NaNs all at once."""
    data = np.array(values, dtype=np.float32)
    assert_matches_np_sort(backend_sort(backend, data), data)


ADVERSARIAL = {
    "empty": np.array([], dtype=np.float32),
    "single": np.array([-0.0], dtype=np.float32),
    "presorted": np.arange(1000, dtype=np.float32),
    "reversed": np.arange(1000, dtype=np.float32)[::-1].copy(),
    "all-equal": np.full(999, 3.25, dtype=np.float32),
    "signed-zeros": np.array([0.0, -0.0] * 50, dtype=np.float32),
    "nan-tails": np.array([np.nan, 1.0, -np.nan, -1.0, np.nan],
                          dtype=np.float32),
    "denormals": np.array([1e-42, -1e-42, 1e-38, -1e-38, 0.0],
                          dtype=np.float32),
    "extremes": np.array([np.finfo(np.float32).max,
                          np.finfo(np.float32).min,
                          np.finfo(np.float32).tiny, np.inf, -np.inf],
                         dtype=np.float32),
}


@pytest.mark.parametrize("backend", CPU_BACKENDS)
@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_cases(backend, case):
    data = ADVERSARIAL[case]
    assert_matches_np_sort(backend_sort(backend, data), data)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_finite_adversarial_cases_all_backends(backend):
    for case in ("empty", "single", "presorted", "reversed", "all-equal",
                 "signed-zeros"):
        data = ADVERSARIAL[case]
        out = backend_sort(backend, data)
        assert_matches_np_sort(out, CONTRACTS[backend].quantize(data))


@pytest.mark.parametrize("backend", [n for n in ALL_BACKENDS
                                     if CONTRACTS[n].finite_only])
def test_finite_only_backends_refuse_non_finite(backend):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SortError):
            backend_sort(backend, np.array([1.0, bad], dtype=np.float32))


@pytest.mark.parametrize("backend", CPU_BACKENDS)
def test_large_skewed_window(backend):
    """Over a million elements, heavily skewed with duplicate runs."""
    rng = np.random.default_rng(2005)
    data = np.concatenate([
        rng.zipf(1.5, 400_000).astype(np.float32),
        np.full(300_000, 7.0, dtype=np.float32),
        -rng.random(348_577).astype(np.float32),
    ])
    rng.shuffle(data)
    assert_matches_np_sort(backend_sort(backend, data), data)


@pytest.mark.parametrize("backend", CPU_BACKENDS)
@settings(max_examples=15, deadline=None)
@given(windows=st.lists(
    st.lists(any32, min_size=0, max_size=60), min_size=0, max_size=6))
def test_sort_batch_matches_per_window_np_sort(backend, windows):
    arrays = [np.array(w, dtype=np.float32) for w in windows]
    results = resolve_sorter(backend).sort_batch(arrays)
    assert len(results) == len(arrays)
    for out, data in zip(results, arrays):
        assert_matches_np_sort(out, data)


@pytest.mark.parametrize("backend", CPU_BACKENDS)
def test_sort_batch_equal_length_windows(backend):
    """The batched fast path (one stacked np.sort)."""
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=512).astype(np.float32) for _ in range(32)]
    arrays[3][::5] = -0.0
    arrays[9][:4] = [np.nan, -np.inf, np.inf, -np.nan]
    for out, data in zip(resolve_sorter(backend).sort_batch(arrays),
                         arrays):
        assert_matches_np_sort(out, data)
