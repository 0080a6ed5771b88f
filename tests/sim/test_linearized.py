"""Tests for the linearizable (waiting) counter — the §6 fix."""

from __future__ import annotations

import threading
import time

import pytest

from repro.analysis import Operation, check_history, find_nonlinearizable_execution
from repro.networks import k_network, l_network
from repro.sim import LinearizedThreadedCounter, linearize_history


class TestLinearizeHistory:
    def test_fixes_the_violating_execution(self):
        """Take an actual non-linearizable execution and apply the waiting
        discipline: the adjusted history is linearizable."""
        for factors in ([2, 2], [2, 2, 2]):
            found = find_nonlinearizable_execution(k_network(factors))
            assert found is not None
            _, ops = found
            assert check_history(ops) is not None  # the found execution violates
            fixed = linearize_history(ops)
            assert check_history(fixed) is None

    def test_preserves_values_and_starts(self):
        ops = [Operation(0, 0, 10, 1), Operation(1, 2, 3, 0)]
        fixed = linearize_history(ops)
        assert sorted(o.value for o in fixed) == [0, 1]
        assert {o.token_id: o.start for o in fixed} == {0: 0, 1: 2}

    def test_ends_ordered_by_value(self):
        ops = [Operation(0, 0, 9, 2), Operation(1, 0, 1, 0), Operation(2, 0, 5, 1)]
        fixed = sorted(linearize_history(ops), key=lambda o: o.value)
        ends = [o.end for o in fixed]
        assert ends == sorted(ends)
        assert len(set(ends)) == len(ends)  # strictly increasing releases

    def test_never_ends_before_original(self):
        ops = [Operation(0, 0, 4, 1), Operation(1, 0, 8, 0)]
        fixed = {o.token_id: o for o in linearize_history(ops)}
        assert fixed[0].end >= 4
        assert fixed[1].end >= 8


class TestLinearizedThreadedCounter:
    def test_exact_range(self):
        counter = LinearizedThreadedCounter(k_network([2, 2]))
        stats = counter.run_threads(n_threads=4, ops_per_thread=25)
        assert sorted(stats.all_values()) == list(range(100))

    def test_real_time_history_is_linearizable(self):
        """The defining property: timestamp every operation with real
        clocks and run the linearizability checker on the history."""
        counter = LinearizedThreadedCounter(k_network([2, 2, 2]))
        ops: list[Operation] = []
        lock = threading.Lock()
        op_id = [0]

        def worker():
            for _ in range(20):
                start = time.perf_counter_ns()
                v = counter.fetch_and_increment()
                end = time.perf_counter_ns()
                with lock:
                    ops.append(Operation(op_id[0], start, end, v))
                    op_id[0] += 1

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert check_history(ops) is None

    def test_on_l_network(self):
        counter = LinearizedThreadedCounter(l_network([3, 2]))
        stats = counter.run_threads(n_threads=3, ops_per_thread=20)
        assert sorted(stats.all_values()) == list(range(60))

    def test_single_thread_sequential(self):
        counter = LinearizedThreadedCounter(k_network([2, 2]))
        assert [counter.fetch_and_increment() for _ in range(10)] == list(range(10))
