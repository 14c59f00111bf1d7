"""The sorting-backend registry is the single construction point.

Covers the registry API (resolution, registration, collisions, the
object escape hatch), the degradation rule of ``cpu_fallback_for``, and
— with an AST scan — the structural guarantee that no module outside
:mod:`repro.backends` instantiates a built-in sorter directly.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro import backends
from repro.backends import (cpu_fallback_for, register_sorter,
                            registered_backends, resolve_sorter)
from repro.core.engine import StreamMiner
from repro.errors import BackendError, SummaryError
from repro.service.sharded import ShardedMiner
from repro.sorting.cpu import InstrumentedCpuSorter
from repro.sorting.gpu_sorter import GpuSorter

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture
def scratch_registry():
    """Snapshot the registry so tests can register without leaking."""
    before = dict(backends._REGISTRY)
    yield
    backends._REGISTRY.clear()
    backends._REGISTRY.update(before)


class NumpySorter:
    """Minimal custom backend: host numpy sort, no cost model."""

    name = "numpy-sort"

    def sort_batch(self, windows):
        return [np.sort(np.asarray(w, dtype=np.float32)) for w in windows]


class TestResolve:
    def test_builtins_are_registered(self):
        names = registered_backends()
        for name in ("gpu", "gpu-pbsn", "gpu-bitonic", "gpu-16",
                     "cpu", "cpu-quicksort"):
            assert name in names
        assert list(names) == sorted(names)

    def test_resolves_builtin_types(self):
        assert isinstance(resolve_sorter("gpu"), GpuSorter)
        assert isinstance(resolve_sorter("cpu"), InstrumentedCpuSorter)

    def test_options_reach_the_factory(self):
        assert resolve_sorter("gpu", network="bitonic").network == "bitonic"
        cpu = resolve_sorter("cpu", cpu_speedup=2.0)
        assert cpu.cost_model.speedup == 2.0

    def test_unknown_name_raises_and_lists_alternatives(self):
        with pytest.raises(BackendError, match="fpga"):
            resolve_sorter("fpga")
        with pytest.raises(BackendError, match="cpu-quicksort"):
            resolve_sorter("fpga")

    def test_backend_error_is_a_summary_error(self):
        # Config mistakes surface through the SummaryError hierarchy the
        # engine's callers already catch.
        assert issubclass(BackendError, SummaryError)

    def test_sorter_objects_pass_through_unchanged(self):
        sorter = NumpySorter()
        assert resolve_sorter(sorter) is sorter

    def test_object_without_sort_batch_is_rejected(self):
        with pytest.raises(BackendError, match="sort_batch"):
            resolve_sorter(object())


class TestRegister:
    def test_custom_backend_round_trips(self, scratch_registry):
        register_sorter("numpy-sort", lambda **kw: NumpySorter())
        assert "numpy-sort" in registered_backends()
        assert isinstance(resolve_sorter("numpy-sort"), NumpySorter)

    def test_collision_requires_replace(self, scratch_registry):
        register_sorter("numpy-sort", lambda **kw: NumpySorter())
        with pytest.raises(BackendError, match="already registered"):
            register_sorter("numpy-sort", lambda **kw: NumpySorter())
        register_sorter("numpy-sort", lambda **kw: NumpySorter(),
                        replace=True)

    def test_shadowing_a_builtin_is_loud(self, scratch_registry):
        with pytest.raises(BackendError, match="already registered"):
            register_sorter("gpu", lambda **kw: NumpySorter())

    def test_invalid_name_or_factory(self):
        with pytest.raises(BackendError):
            register_sorter("", lambda **kw: NumpySorter())
        with pytest.raises(BackendError):
            register_sorter(3, lambda **kw: NumpySorter())
        with pytest.raises(BackendError, match="not callable"):
            register_sorter("broken", "not-a-factory")

    def test_custom_backend_drives_the_miner(self, scratch_registry):
        """A registered backend is a drop-in for the whole pipeline."""
        register_sorter("numpy-sort", lambda **kw: NumpySorter())
        data = np.random.default_rng(42).random(8192).astype(np.float32)
        answers = {}
        for backend in ("cpu", "numpy-sort"):
            miner = StreamMiner("quantile", eps=0.05, backend=backend,
                                window_size=256, stream_length_hint=8192)
            miner.process(data)
            answers[backend] = [miner.quantile(p) for p in (0.1, 0.5, 0.9)]
        # Sorting is a pure function of the window: backends can only
        # change cost, never answers.
        assert answers["numpy-sort"] == answers["cpu"]
        miner = StreamMiner("quantile", eps=0.05, backend="numpy-sort",
                            window_size=256)
        assert miner.backend == "numpy-sort"


class TestCpuFallback:
    def test_gpu_sorter_degrades_to_cpu(self):
        fallback = cpu_fallback_for(resolve_sorter("gpu"))
        assert isinstance(fallback, InstrumentedCpuSorter)

    def test_speedup_carries_into_the_fallback(self):
        fallback = cpu_fallback_for(resolve_sorter("gpu"), cpu_speedup=1.5)
        assert fallback.cost_model.speedup == 1.5

    def test_host_and_custom_sorters_get_no_fallback(self):
        assert cpu_fallback_for(resolve_sorter("cpu")) is None
        assert cpu_fallback_for(NumpySorter()) is None

    def test_degrades_to_attribute_drives_custom_fallback(
            self, scratch_registry):
        class DegradingSorter(NumpySorter):
            name = "numpy-degrading"
            degrades_to = "cpu-quicksort"

        fallback = cpu_fallback_for(DegradingSorter())
        assert isinstance(fallback, InstrumentedCpuSorter)

    def test_self_degradation_is_refused(self, scratch_registry):
        class SelfSorter(NumpySorter):
            name = "cpu-quicksort"
            degrades_to = "cpu-quicksort"

        assert cpu_fallback_for(SelfSorter()) is None

    def test_fallback_is_resolved_through_the_registry(self,
                                                       scratch_registry):
        """Degradation must go through resolve_sorter, not a constructor."""
        class MarkedCpuSorter(InstrumentedCpuSorter):
            pass

        register_sorter("cpu", lambda **kw: MarkedCpuSorter(),
                        replace=True)
        fallback = cpu_fallback_for(resolve_sorter("gpu"))
        assert isinstance(fallback, MarkedCpuSorter)

    def test_sharded_service_fallbacks_come_from_the_registry(self):
        gpu_pool = ShardedMiner("quantile", eps=0.05, num_shards=2,
                                backend="gpu", window_size=256)
        assert all(isinstance(f, InstrumentedCpuSorter)
                   for f in gpu_pool._fallback_sorters)
        cpu_pool = ShardedMiner("quantile", eps=0.05, num_shards=2,
                                backend="cpu", window_size=256)
        assert cpu_pool._fallback_sorters == [None, None]


class TestSingleConstructionPoint:
    # backends.py owns construction; the defining modules may reference
    # their own classes.
    ALLOWED = {
        SRC_ROOT / "backends.py",
        SRC_ROOT / "sorting" / "cpu.py",
        SRC_ROOT / "sorting" / "gpu_sorter.py",
    }

    def test_no_direct_sorter_construction_outside_backends(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path in self.ALLOWED:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name in ("GpuSorter", "InstrumentedCpuSorter"):
                    offenders.append(
                        f"{path.relative_to(SRC_ROOT)}:{node.lineno}")
        assert not offenders, (
            "sorters must be built via repro.backends.resolve_sorter; "
            f"direct construction at: {offenders}")
