"""The flat execution plan must be an exact drop-in for the reference
evaluator: byte-identical outputs across families, degenerate shapes,
single vs batch calls, fault overrides, obs on and off, and process-pool
sharding — plus the structural guarantees (scratch-pool reuse, plan
serialization round-trip, corrupted-plan rejection) the cache and the
serving layer lean on."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.core.network import NetworkBuilder, identity_network, single_balancer_network
from repro.core.plan import ExecutionPlan, PlanExecutor, lower_network, plan_executor
from repro.faults.mutator import FaultyNetwork, StuckOverride
from repro.networks import k_network, l_network, r_network
from repro.sim import propagate_counts, propagate_counts_reference


def _reference_batch(net, x: np.ndarray) -> np.ndarray:
    return np.stack([propagate_counts_reference(net, row) for row in x])


def _random_batch(net, batch: int, seed: int, high: int = 1000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=(batch, net.width)).astype(np.int64)


# ---------------------------------------------------------------------------
# Equivalence with the per-balancer reference, across families.
# ---------------------------------------------------------------------------


_FACTOR_LISTS = st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4)


class TestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(factors=_FACTOR_LISTS, seed=st.integers(0, 2**32 - 1))
    def test_k_family(self, factors, seed):
        net = k_network(factors)
        x = _random_batch(net, 3, seed)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    @settings(max_examples=15, deadline=None)
    @given(factors=_FACTOR_LISTS, seed=st.integers(0, 2**32 - 1))
    def test_l_family(self, factors, seed):
        net = l_network(factors)
        x = _random_batch(net, 3, seed)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    @settings(max_examples=10, deadline=None)
    @given(
        p=st.integers(min_value=2, max_value=4),
        q=st.integers(min_value=2, max_value=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_r_family(self, p, q, seed):
        net = r_network(p, q)
        x = _random_batch(net, 3, seed)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    def test_single_vector_matches_batch(self):
        net = k_network([2, 3, 2])
        x = _random_batch(net, 1, 7)
        via_batch = propagate_counts(net, x)[0]
        via_single = propagate_counts(net, x[0])
        assert via_single.shape == (net.width,)
        assert np.array_equal(via_single, via_batch)

    def test_degenerate_identity_network(self):
        net = identity_network(5)
        x = _random_batch(net, 4, 0)
        assert np.array_equal(plan_executor(net).run(x), x)

    def test_degenerate_single_balancer(self):
        net = single_balancer_network(7)
        x = _random_batch(net, 4, 1)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    def test_width_one_network(self):
        net = identity_network(1)
        x = np.array([[3], [0], [9]], dtype=np.int64)
        assert np.array_equal(plan_executor(net).run(x), x)

    def test_irregular_mixed_width_layers(self):
        # Balancers of widths 2, 3 and 4 sharing layers: exercises several
        # segments per layer and the general (non width-2) kernel.
        b = NetworkBuilder(9)
        w = list(b.inputs)
        y = b.balancer(w[0:2]) + b.balancer(w[2:5]) + b.balancer(w[5:9])
        z = b.balancer(y[0:4]) + b.balancer(y[4:6]) + b.balancer(y[6:9])
        net = b.finish(z, name="mixed")
        x = _random_batch(net, 5, 3)
        assert np.array_equal(plan_executor(net).run(x), _reference_batch(net, x))

    def test_obs_on_and_off_byte_identical(self):
        net = k_network([2, 2, 3])
        x = _random_batch(net, 6, 4)
        obs.disable()
        off = propagate_counts(net, x)
        with obs.capture() as (reg, _):
            on = propagate_counts(net, x)
            assert reg.get("sim.counts.batches").value == 1
            assert reg.get("sim.counts.layer_seconds") is not None
        assert off.tobytes() == on.tobytes()

    def test_faulty_network_stays_on_override_path(self):
        base = k_network([2, 2, 3])
        # Stick a final-layer balancer: its outputs are network outputs, so
        # the fault must be visible (an internal balancer whose outputs all
        # feed one downstream balancer would be masked — totals-only flow).
        net = FaultyNetwork(
            base.inputs,
            base.outputs,
            base.balancers,
            base.num_wires,
            name=base.name,
            fault_overrides={base.size - 1: StuckOverride(0)},
        )
        x = _random_batch(net, 5, 5, high=50)
        got = propagate_counts(net, x)
        assert np.array_equal(got, _reference_batch(net, x))
        # The override must actually change the output vs the pristine net.
        assert not np.array_equal(got, propagate_counts(base, x))

    def test_workers_match_serial(self):
        net = k_network([2, 2, 2, 2])
        x = _random_batch(net, 32, 6)
        serial = propagate_counts(net, x)
        sharded = propagate_counts(net, x, workers=2)
        assert np.array_equal(serial, sharded)
        plan_executor(net).close_pool()

    def test_workers_keep_the_sort_dtype(self):
        """Sharded sorts are byte-identical to serial ones: floats are not
        truncated to int64 on the way to the workers."""
        net = k_network([2, 2])
        ex = plan_executor(net, semantics="sort")
        x = np.random.default_rng(0).random((8, net.width)) * 10
        try:
            sharded = ex.run_parallel(x, workers=2)
        finally:
            ex.close_pool()
        assert sharded.dtype == x.dtype
        assert sharded.tobytes() == ex.run(x).tobytes()

    def test_small_batch_falls_back_to_serial(self):
        net = k_network([2, 2])
        ex = plan_executor(net)
        x = _random_batch(net, 2, 8)
        assert np.array_equal(ex.run_parallel(x, workers=4), ex.run(x))
        assert ex._workers_pool is None  # fallback never built a pool


# ---------------------------------------------------------------------------
# Executor mechanics: scratch pooling, layer timing, validation.
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_scratch_pool_reuses_buffers(self):
        ex = PlanExecutor(lower_network(k_network([2, 3])))
        x = _random_batch(k_network([2, 3]), 8, 0)
        ex.run(x)
        assert ex.buffer_allocs == 1 and ex.buffer_reuses == 0
        for _ in range(5):
            ex.run(x)
        assert ex.buffer_allocs == 1 and ex.buffer_reuses == 5

    def test_scratch_pool_evicts_lru(self):
        net = k_network([2, 3])
        ex = PlanExecutor(lower_network(net), max_pooled=2)
        for batch in (1, 2, 3):  # 3 evicts 1 (LRU)
            ex.run(_random_batch(net, batch, batch))
        assert sorted(b for b, _ in ex.pool._pool) == [2, 3]
        ex.run(_random_batch(net, 1, 9))  # re-allocates batch 1
        assert ex.buffer_allocs == 4

    def test_layer_times_accumulate(self):
        net = k_network([2, 2, 2])
        ex = plan_executor(net)
        plan = ex.plan
        times = np.zeros(plan.depth, dtype=np.float64)
        out_timed = ex.run(_random_batch(net, 4, 1), layer_times=times)
        assert np.all(times >= 0.0) and times.sum() > 0.0
        assert np.array_equal(out_timed, ex.run(_random_batch(net, 4, 1)))

    def test_rejects_wrong_width(self):
        ex = plan_executor(k_network([2, 2]))
        with pytest.raises(ValueError, match="expected input shape"):
            ex.run(np.zeros((3, 5), dtype=np.int64))

    def test_executor_memoized_per_network(self):
        net = k_network([2, 2])
        assert plan_executor(net) is plan_executor(net)
        assert lower_network(net) is lower_network(net)


# ---------------------------------------------------------------------------
# Plan serialization: round-trip and corruption rejection.
# ---------------------------------------------------------------------------


class TestPlanArrays:
    def test_round_trip(self):
        net = l_network([2, 3, 2])
        plan = lower_network(net)
        clone = ExecutionPlan.from_arrays(plan.to_arrays(), name=plan.name)
        x = _random_batch(net, 4, 2)
        assert np.array_equal(PlanExecutor(clone).run(x), PlanExecutor(plan).run(x))
        assert clone.depth == plan.depth and clone.size == plan.size

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda a: a.pop("in_flat"),
            lambda a: a.update(scalars=a["scalars"][:2]),
            lambda a: a.update(in_flat=a["in_flat"] + 10**6),  # out-of-range ids
            lambda a: a.update(seg_width=a["seg_width"][:-1]),
        ],
    )
    def test_rejects_corrupted_arrays(self, mangle):
        plan = lower_network(k_network([2, 3]))
        arrays = {k: v.copy() for k, v in plan.to_arrays().items()}
        mangle(arrays)
        with pytest.raises((ValueError, KeyError)):
            ExecutionPlan.from_arrays(arrays)
