"""Executor registry and the synchronous InlineService adapter."""

import asyncio

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import (CheckpointStore, InlineService, ShardedMiner,
                          register_executor, registered_executors,
                          resolve_executor)
from repro.service import executors as executors_module
from repro.streams import uniform_stream


class TestRegistry:
    def test_builtins_registered(self):
        assert {"inline", "async", "mp"} <= set(registered_executors())

    def test_names_sorted(self):
        names = registered_executors()
        assert list(names) == sorted(names)

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ServiceError, match="inline"):
            resolve_executor("distributed")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ServiceError, match="already registered"):
            register_executor("inline", lambda m, s: None)

    def test_replace_and_custom_registration(self):
        marker = object()
        register_executor("test-dummy", lambda m, s: marker)
        try:
            assert resolve_executor("test-dummy")({}, {}) is marker
            replacement = lambda m, s: None  # noqa: E731
            register_executor("test-dummy", replacement, replace=True)
            assert resolve_executor("test-dummy") is replacement
        finally:
            executors_module._EXECUTORS.pop("test-dummy", None)

    def test_factories_build_services_exposing_the_pool(self):
        service = resolve_executor("inline")(
            dict(statistic="quantile", eps=0.05, num_shards=2,
                 backend="cpu", window_size=256), {})
        assert isinstance(service.miner, ShardedMiner)


class TestInlineService:
    def _service(self, **service_kwargs):
        miner = ShardedMiner("quantile", eps=0.05, num_shards=2,
                             backend="cpu", window_size=256)
        return InlineService(miner, **service_kwargs)

    def test_lifecycle_guards(self):
        async def drive():
            service = self._service()
            with pytest.raises(ServiceError, match="not started"):
                await service.ingest(np.ones(8, dtype=np.float32))
            async with service:
                with pytest.raises(ServiceError, match="already started"):
                    await service.start()
                with pytest.raises(ServiceError, match="no checkpoint"):
                    await service.checkpoint()
            await service.stop()  # second stop is a no-op
        asyncio.run(drive())

    def test_ingest_reports_accepted_and_queries_answer(self):
        async def drive():
            service = self._service()
            data = uniform_stream(8_192, seed=2)
            async with service:
                accepted = await service.ingest(data)
                assert accepted == data.size
                median = await service.quantile(0.5, fresh=True)
                assert 0.0 <= median <= 1000.0
            assert service.miner.processed == data.size
            assert service.metrics.ingested == data.size
        asyncio.run(drive())

    def test_queue_knobs_accepted_and_ignored(self):
        # the factory contract passes the async service's knobs through
        service = self._service(queue_chunks=4, shed_capacity=None)
        assert isinstance(service, InlineService)

    def test_shed_capacity_refused(self):
        # a synchronous pool has no shedder: taking the setting would
        # report every element accepted
        with pytest.raises(ServiceError, match="shed_capacity.*async"):
            self._service(shed_capacity=50)

    def test_checkpoint_interval_refused(self):
        with pytest.raises(ServiceError,
                           match="checkpoint_interval.*async"):
            self._service(checkpoint_interval=0.5)

    def test_factory_refuses_what_the_service_would_drop(self):
        with pytest.raises(ServiceError, match="shed_capacity"):
            resolve_executor("inline")(
                dict(statistic="frequency", eps=0.01, num_shards=2,
                     backend="cpu"), dict(shed_capacity=50))

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            self._service(queue_chunk=4)

    def test_stop_writes_final_checkpoint(self, tmp_path):
        async def drive():
            miner = ShardedMiner("quantile", eps=0.05, num_shards=2,
                                 backend="cpu", window_size=256)
            store = CheckpointStore(tmp_path)
            service = InlineService(miner, checkpoint_store=store)
            async with service:
                await service.ingest(uniform_stream(4_096, seed=1))
                path = await service.checkpoint()
                assert path.exists()
            assert len(store.checkpoints()) == 2  # explicit + final
            state = store.load_latest()
            restored = ShardedMiner.from_snapshot(state)
            assert restored.processed + restored.buffered == 4_096
        asyncio.run(drive())
