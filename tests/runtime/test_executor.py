"""Tests for the runtime executors."""

import ctypes

import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    ParallelExecutor,
    RuntimeMetrics,
    SerialExecutor,
    create_executor,
)
from repro.runtime import executor as executor_module

_OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def square(x):
    return x * x


def openblas_threads(_item=None):
    """Thread count of every OpenBLAS loaded here, asked through ctypes.

    Independent of the executor's own lookup: the libraries are found
    from the process's memory map and asked through their getters.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    counts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _OPENBLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                counts.append(int(getter()))
                break
    return counts


def explode(x):
    raise ValueError(f"boom {x}")


class TestSerialExecutor:
    def test_maps_in_order(self):
        ex = SerialExecutor()
        assert ex.map_ordered(square, range(6)) == [0, 1, 4, 9, 16, 25]

    def test_empty(self):
        assert SerialExecutor().map_ordered(square, []) == []

    def test_workers_is_one(self):
        assert SerialExecutor().workers == 1

    def test_metrics_recorded(self):
        metrics = RuntimeMetrics()
        ex = SerialExecutor(metrics)
        ex.map_ordered(square, range(5), stage="estimate")
        snap = metrics.snapshot()
        assert snap["counters"]["estimate.submitted"] == 5
        assert snap["counters"]["estimate.completed"] == 5
        assert snap["timings"]["estimate"]["count"] == 5

    def test_exception_propagates_and_counts(self):
        metrics = RuntimeMetrics()
        ex = SerialExecutor(metrics)
        with pytest.raises(ValueError):
            ex.map_ordered(explode, [1], stage="s")
        assert metrics.counter("s.errors") == 1
        assert metrics.counter("s.errors.ValueError") == 1


class TestParallelExecutor:
    def test_matches_serial_in_order(self):
        with ParallelExecutor(workers=2) as ex:
            assert ex.map_ordered(square, range(20)) == [i * i for i in range(20)]

    def test_empty(self):
        with ParallelExecutor(workers=2) as ex:
            assert ex.map_ordered(square, []) == []

    def test_reusable_across_calls(self):
        with ParallelExecutor(workers=2) as ex:
            first = ex.map_ordered(square, range(4))
            second = ex.map_ordered(square, range(4, 8))
        assert first == [0, 1, 4, 9]
        assert second == [16, 25, 36, 49]

    def test_exception_propagates(self):
        metrics = RuntimeMetrics()
        with ParallelExecutor(workers=2, metrics=metrics) as ex:
            with pytest.raises(ValueError):
                ex.map_ordered(explode, range(3), stage="s")
        assert metrics.counter("s.errors.ValueError") >= 1

    def test_metrics_batch_timing(self):
        metrics = RuntimeMetrics()
        with ParallelExecutor(workers=2, metrics=metrics) as ex:
            ex.map_ordered(square, range(7), stage="estimate")
        snap = metrics.snapshot()
        assert snap["counters"]["estimate.submitted"] == 7
        assert snap["counters"]["estimate.completed"] == 7
        assert snap["timings"]["estimate"]["total_s"] > 0

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(workers=0)

    def test_close_is_idempotent(self):
        ex = ParallelExecutor(workers=2)
        ex.map_ordered(square, [1])
        ex.close()
        ex.close()


class TestBlasThreadCap:
    @pytest.fixture()
    def parent_counts(self):
        counts = openblas_threads()
        if not counts:
            pytest.skip("no OpenBLAS loaded in this process")
        return counts

    def test_pool_workers_run_one_blas_thread(self, parent_counts):
        with ParallelExecutor(workers=2) as ex:
            per_item = ex.map_ordered(openblas_threads, range(4))
        assert per_item == [[1] * len(parent_counts)] * 4

    def test_parent_keeps_its_thread_count(self, parent_counts):
        with ParallelExecutor(workers=2) as ex:
            ex.map_ordered(openblas_threads, range(2))
            assert openblas_threads() == parent_counts
        assert openblas_threads() == parent_counts

    def test_no_openblas_library_is_a_no_op(self, parent_counts, monkeypatch):
        monkeypatch.setattr(executor_module, "_loaded_openblas_paths", lambda: [])
        assert executor_module.limit_blas_threads() == 0
        assert openblas_threads() == parent_counts

    def test_no_setter_symbol_is_a_no_op(self, parent_counts, monkeypatch):
        monkeypatch.setattr(
            executor_module, "_OPENBLAS_THREAD_SETTERS", ("no_such_symbol",)
        )
        assert executor_module.limit_blas_threads() == 0
        assert openblas_threads() == parent_counts


class TestCreateExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(create_executor(1), SerialExecutor)
        assert isinstance(create_executor(0), SerialExecutor)

    def test_many_workers_is_parallel(self):
        ex = create_executor(3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 3
        ex.close()

    def test_shared_metrics(self):
        metrics = RuntimeMetrics()
        ex = create_executor(1, metrics=metrics)
        ex.map_ordered(square, [2], stage="m")
        assert metrics.counter("m.completed") == 1


class TestRuntimeMetrics:
    def test_counters_and_drops(self):
        m = RuntimeMetrics()
        m.increment("a", 2)
        m.record_drop("overflow", 3)
        assert m.counter("a") == 2
        assert m.counter("drop.overflow") == 3
        assert m.counter("missing") == 0

    def test_timings_aggregate(self):
        m = RuntimeMetrics()
        m.record_complete("fix", 0.5)
        m.record_complete("fix", 1.5)
        timing = m.snapshot()["timings"]["fix"]
        assert timing["count"] == 2
        assert timing["total_s"] == pytest.approx(2.0)
        assert timing["mean_s"] == pytest.approx(1.0)
        assert timing["max_s"] == pytest.approx(1.5)

    def test_reset(self):
        m = RuntimeMetrics()
        m.increment("a")
        m.record_complete("fix", 0.1)
        m.reset()
        assert m.snapshot() == {"counters": {}, "timings": {}}
