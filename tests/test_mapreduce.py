"""Tests for the MapReduce framework and engines."""

import pytest

from repro.errors import ConfigError
from repro.mapreduce import (
    KeyValue,
    MapReduceJob,
    ProcessPoolEngine,
    SerialEngine,
    ThreadPoolEngine,
    group_by_key,
    run_job,
    sum_combiner,
)


def word_count_job(texts):
    """The canonical MapReduce example, used to test the generic engine."""
    inputs = [KeyValue(i, t) for i, t in enumerate(texts)]

    def mapper(rec):
        for word in rec.value.split():
            yield KeyValue(word, 1)

    def reducer(word, ones):
        return sum(ones)

    return MapReduceJob(inputs=inputs, mapper=mapper, reducer=reducer)


def _picklable_word_mapper(rec):
    """Module-level mapper: the process-pool engine must pickle it."""
    return [KeyValue(word, 1) for word in rec.value.split()]


def _picklable_sum_reducer(word, ones):
    return sum(ones)


class TestGenericFramework:
    def test_word_count_serial(self):
        job = word_count_job(["a b a", "b c", "a"])
        out = run_job(job, SerialEngine())
        assert out == {"a": 3, "b": 2, "c": 1}

    def test_default_engine_is_serial(self):
        job = word_count_job(["x y x"])
        assert run_job(job) == {"x": 2, "y": 1}

    def test_threadpool_matches_serial(self):
        texts = [f"w{i % 7} w{i % 3}" for i in range(100)]
        job = word_count_job(texts)
        assert run_job(job, SerialEngine()) == run_job(job, ThreadPoolEngine(4))

    def test_processpool_matches_serial(self):
        texts = [f"w{i % 7} w{i % 3}" for i in range(40)]
        job = MapReduceJob(
            inputs=[KeyValue(i, t) for i, t in enumerate(texts)],
            mapper=_picklable_word_mapper,
            reducer=_picklable_sum_reducer,
        )
        assert run_job(job, SerialEngine()) == run_job(job, ProcessPoolEngine(2))

    def test_processpool_worker_validation(self):
        with pytest.raises(ConfigError):
            ProcessPoolEngine(workers=0)

    def test_processpool_scope_reuses_one_executor(self):
        """`with engine:` pins one executor for every run inside."""
        texts = [f"w{i % 5}" for i in range(20)]
        job = MapReduceJob(
            inputs=[KeyValue(i, t) for i, t in enumerate(texts)],
            mapper=_picklable_word_mapper,
            reducer=_picklable_sum_reducer,
        )
        engine = ProcessPoolEngine(workers=2)
        try:
            with engine:
                assert engine.pool_active
                first = engine.run(job)
                second = engine.run(job)
                assert engine.pools_spawned == 1  # both runs, one pool
        except (OSError, RuntimeError):
            pytest.skip("platform cannot spawn process pools")
        assert not engine.pool_active
        assert first == second == run_job(job, SerialEngine())

    def test_processpool_scope_is_reentrant(self):
        engine = ProcessPoolEngine(workers=2)
        try:
            with engine:
                with engine:
                    assert engine.pools_spawned == 1
                assert engine.pool_active  # inner exit keeps the pool
        except (OSError, RuntimeError):
            pytest.skip("platform cannot spawn process pools")
        assert not engine.pool_active

    def test_serial_engine_scope_is_noop(self):
        engine = SerialEngine()
        with engine:
            job = word_count_job(["a b a"])
            assert engine.run(job) == {"a": 2, "b": 1}

    def test_intermediate_step_applied(self):
        """The paper's between-map-and-reduce hook (the span fix slot)."""
        job = word_count_job(["a a b"])
        boosted = MapReduceJob(
            inputs=job.inputs,
            mapper=job.mapper,
            reducer=job.reducer,
            intermediate=lambda recs: recs + [KeyValue("a", 10)],
        )
        out = run_job(boosted)
        assert out["a"] == 12

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigError):
            MapReduceJob(inputs=[], mapper=None, reducer=lambda k, v: 0)  # type: ignore

    def test_threadpool_worker_validation(self):
        with pytest.raises(ConfigError):
            ThreadPoolEngine(0)


class TestShuffleHelpers:
    def test_group_by_key_preserves_first_seen_order(self):
        recs = [KeyValue("b", 1), KeyValue("a", 2), KeyValue("b", 3)]
        groups = group_by_key(recs)
        assert list(groups) == ["b", "a"]
        assert groups["b"] == [1, 3]

    def test_sum_combiner(self):
        recs = [KeyValue("x", 1.0), KeyValue("y", 2.0), KeyValue("x", 4.0)]
        combined = {kv.key: kv.value for kv in sum_combiner(recs)}
        assert combined == {"x": 5.0, "y": 2.0}
