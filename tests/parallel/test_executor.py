"""Tests for the seed-stable process pool (repro.parallel)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.parallel import ParallelExecutor, derive_seed, resolve_workers
from repro.parallel.executor import default_context


def _square(shared, task):
    return shared * task * task


def _pid_task(shared, task):
    return os.getpid()


def _fail_on_two(shared, task):
    if task == 2:
        raise ValueError("task 2 exploded")
    return task


def _draw(shared, task):
    base_seed, count = shared
    index, _payload = task
    rng = np.random.default_rng(derive_seed(base_seed, index))
    return rng.random(count).tolist()


class TestResolveWorkers:
    def test_none_and_one_are_sequential(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_and_negative_mean_all_cores(self):
        cores = os.cpu_count() or 1
        assert resolve_workers(0) == cores
        assert resolve_workers(-1) == cores

    def test_positive_is_literal(self):
        assert resolve_workers(3) == 3


class TestDefaultContext:
    def test_forks_where_the_platform_can_and_spawns_elsewhere(self, monkeypatch):
        import repro.parallel.executor as executor_module

        methods = executor_module.multiprocessing
        monkeypatch.setattr(methods, "get_all_start_methods", lambda: ["fork", "spawn"])
        assert default_context().get_start_method() == "fork"
        monkeypatch.setattr(methods, "get_all_start_methods", lambda: ["spawn", "forkserver"])
        assert default_context().get_start_method() == "spawn"


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        seeds = [derive_seed(7, i) for i in range(32)]
        assert seeds == [derive_seed(7, i) for i in range(32)]
        assert len(set(seeds)) == 32

    def test_base_seed_matters(self):
        assert derive_seed(0, 5) != derive_seed(1, 5)

    def test_none_stays_none(self):
        assert derive_seed(None, 3) is None


class TestParallelExecutor:
    def test_empty_task_list(self):
        assert ParallelExecutor(workers=4).map(_square, [], shared=1) == []

    def test_sequential_matches_direct_calls(self):
        result = ParallelExecutor(workers=1).map(_square, [1, 2, 3], shared=10)
        assert result == [10, 40, 90]

    def test_parallel_preserves_task_order(self):
        tasks = list(range(20))
        expected = [3 * t * t for t in tasks]
        assert ParallelExecutor(workers=4).map(_square, tasks, shared=3) == expected

    def test_sequential_runs_in_this_process(self):
        pids = ParallelExecutor(workers=1).map(_pid_task, [0, 1])
        assert set(pids) == {os.getpid()}

    def test_parallel_runs_in_worker_processes(self):
        pids = ParallelExecutor(workers=2).map(_pid_task, list(range(8)))
        assert os.getpid() not in pids

    def test_single_task_stays_inline(self):
        assert ParallelExecutor(workers=8).map(_pid_task, [0]) == [os.getpid()]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exceptions_propagate(self, workers):
        with pytest.raises(ValueError, match="task 2 exploded"):
            ParallelExecutor(workers=workers).map(_fail_on_two, [0, 1, 2, 3])

    def test_rng_streams_identical_at_any_worker_count(self):
        tasks = [(i, None) for i in range(12)]
        sequential = ParallelExecutor(workers=1).map(_draw, tasks, shared=(42, 5))
        parallel = ParallelExecutor(workers=4).map(_draw, tasks, shared=(42, 5))
        assert sequential == parallel
