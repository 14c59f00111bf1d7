"""Fault-injection model: plans, injectors, and device wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import BusError, RasterizationError
from repro.gpu import FaultInjector, FaultPlan, GpuDevice
from repro.gpu.faults import FAULT_OPS, TRANSIENT_GPU_ERRORS
from repro.sorting import GpuSorter, pbsn_sort_texture, sort_step


class TestFaultPlan:
    def test_validates_rates(self):
        with pytest.raises(ValueError):
            FaultPlan(upload_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(readback_rate=-0.1)

    def test_validates_at_ops(self):
        with pytest.raises(ValueError):
            FaultPlan(at={"teleport": (0,)})

    def test_transfers_covers_both_bus_directions(self):
        plan = FaultPlan.transfers(0.25, seed=3)
        assert plan.rate("upload") == 0.25
        assert plan.rate("readback") == 0.25
        assert plan.rate("raster") == 0.0

    def test_reseeded_keeps_everything_but_the_seed(self):
        plan = FaultPlan(upload_rate=0.1, at={"raster": (2,)}, seed=1,
                         max_faults=5)
        other = plan.reseeded(99)
        assert other.seed == 99
        assert other.upload_rate == plan.upload_rate
        assert other.at == plan.at
        assert other.max_faults == plan.max_faults


class TestFaultInjector:
    def test_exact_schedule_fires_on_the_indexed_occurrence(self):
        inj = FaultInjector(FaultPlan(at={"readback": (1, 3)}))
        inj.check("readback")
        with pytest.raises(BusError):
            inj.check("readback")
        inj.check("readback")
        with pytest.raises(BusError):
            inj.check("readback")
        assert inj.injected["readback"] == 2
        assert inj.op_counts["readback"] == 4

    def test_each_op_class_raises_its_typed_error(self):
        inj = FaultInjector(FaultPlan(at={
            "upload": (0,), "readback": (0,), "raster": (0,)}))
        with pytest.raises(BusError):
            inj.check("upload")
        with pytest.raises(BusError):
            inj.check("readback")
        with pytest.raises(RasterizationError):
            inj.check("raster")

    def test_unknown_op_rejected(self):
        inj = FaultInjector(FaultPlan())
        with pytest.raises(ValueError):
            inj.check("shader")

    def test_seeded_rates_replay_identically(self):
        plan = FaultPlan.transfers(0.3, seed=42)
        outcomes = []
        for _ in range(2):
            inj = FaultInjector(plan)
            seq = []
            for _ in range(200):
                try:
                    inj.check("upload")
                    seq.append(0)
                except BusError:
                    seq.append(1)
            outcomes.append(seq)
        assert outcomes[0] == outcomes[1]
        assert sum(outcomes[0]) > 0

    def test_rate_roughly_matches_over_many_ops(self):
        inj = FaultInjector(FaultPlan(upload_rate=0.1, seed=0))
        hits = 0
        for _ in range(2000):
            try:
                inj.check("upload")
            except BusError:
                hits += 1
        assert 0.05 < hits / 2000 < 0.2

    def test_max_faults_caps_the_burst(self):
        inj = FaultInjector(FaultPlan(upload_rate=0.9, seed=0, max_faults=3))
        hits = 0
        for _ in range(100):
            try:
                inj.check("upload")
            except BusError:
                hits += 1
        assert hits == 3
        assert inj.total_injected == 3

    def test_no_plan_is_a_noop(self):
        inj = FaultInjector(FaultPlan())
        for op in FAULT_OPS:
            for _ in range(50):
                inj.check(op)
        assert inj.total_injected == 0


class TestDeviceWiring:
    def _texels(self):
        return np.arange(16, dtype=np.float32).reshape(2, 2, 4)

    def test_default_device_has_no_injector(self, device):
        assert device.fault_injector is None
        device.upload_texture(self._texels())  # never faults

    def test_upload_fault_surfaces_as_bus_error(self):
        dev = GpuDevice(fault_injector=FaultInjector(
            FaultPlan(at={"upload": (0,)})))
        with pytest.raises(BusError):
            dev.upload_texture(self._texels())

    def test_faulted_upload_leaks_no_video_memory(self):
        """A faulted upload must free its texture or retries exhaust VRAM."""
        dev = GpuDevice(fault_injector=FaultInjector(
            FaultPlan(at={"upload": tuple(range(100))})))
        for _ in range(100):
            with pytest.raises(BusError):
                dev.upload_texture(self._texels())
        assert dev.video_memory_used == 0
        tex = dev.upload_texture(self._texels())  # 101st upload succeeds
        assert tex.nbytes == dev.video_memory_used

    def test_retry_after_upload_fault_behaves_as_if_never_faulted(self):
        dev = GpuDevice(fault_injector=FaultInjector(
            FaultPlan(at={"upload": (0,)})))
        texels = self._texels()
        with pytest.raises(BusError):
            dev.upload_texture(texels)
        tex = dev.upload_texture(texels)
        np.testing.assert_array_equal(tex.read(), texels)

    def test_raster_fault_surfaces_on_draw(self):
        dev = GpuDevice(fault_injector=FaultInjector(
            FaultPlan(at={"raster": (0,)})))
        tex = dev.upload_texture(self._texels())
        dev.bind_framebuffer(2, 2)
        with pytest.raises(RasterizationError):
            dev.copy_texture_to_framebuffer(tex)
        dev.copy_texture_to_framebuffer(tex)  # retry succeeds

    def test_transient_errors_tuple_matches_fault_ops(self):
        assert set(FAULT_OPS.values()) == set(TRANSIENT_GPU_ERRORS)


class TestBatchedStepFaults:
    """A PBSN step draws its quads as one batch; faults stay per quad.

    64 values sort as a 4x4 texture per channel.  Raster operation 0 is
    the Copy, 1-2 the two quads of the block-16 step, and 3-6 the four
    quads of the block-8 step, so ``RASTER_FAULT`` lands on the second
    quad of a four-quad step.
    """

    RASTER_FAULT = 4

    def _values(self):
        return np.random.default_rng(11).random(64).astype(np.float32)

    def _faulty(self):
        return GpuDevice(fault_injector=FaultInjector(
            FaultPlan(at={"raster": (self.RASTER_FAULT,)})))

    def test_faulted_step_changes_nothing(self):
        texels = self._values().reshape(4, 4, 4)
        faulty, clean = self._faulty(), GpuDevice()
        faulty_tex = faulty.upload_texture(texels)
        clean_tex = clean.upload_texture(texels)
        faulty.bind_framebuffer(4, 4)
        clean.bind_framebuffer(4, 4)
        # The clean device runs exactly what precedes the faulted step.
        clean.copy_texture_to_framebuffer(clean_tex)
        sort_step(clean, clean_tex, 4, 4, 16)
        clean.copy_framebuffer_to_texture(clean_tex)

        with pytest.raises(RasterizationError):
            pbsn_sort_texture(faulty, faulty_tex)
        assert faulty.fault_injector.op_counts["raster"] \
            == self.RASTER_FAULT + 1
        assert faulty.framebuffer.read().tobytes() \
            == clean.framebuffer.read().tobytes()
        assert faulty.counters == clean.counters

    def test_retried_sort_is_exact(self):
        values = self._values()
        sorter = GpuSorter(device=self._faulty())
        with pytest.raises(RasterizationError):
            sorter.sort(values)
        assert sorter.device.fault_injector.op_counts["raster"] \
            == self.RASTER_FAULT + 1
        np.testing.assert_array_equal(sorter.sort(values), np.sort(values))

    def test_one_raster_check_per_pass(self):
        sorter = GpuSorter(device=GpuDevice(
            fault_injector=FaultInjector(FaultPlan())))
        sorter.sort(self._values())
        assert sorter.device.fault_injector.op_counts["raster"] \
            == sorter.last_counters.passes
