"""Differential conformance of the three plan-executor semantics.

This PR deleted the legacy per-layer walkers from ``sim/sort_sim`` and
``sim/count_sim`` and lowered all three network views — quiescent counts,
descending comparator sort, batched token state — onto the one
:class:`~repro.core.plan.ExecutionPlan` substrate.  Their behaviour is
pinned here instead: the walkers live on as *inline oracles* over the
compiled per-layer groups, and hypothesis drives arbitrary irregular
networks (mixed widths, partial layers, zero-layer degenerates) plus the
paper's K/L/R families and the ``searched`` variant through both, asserting
byte-identical outputs.  Fault-override sweeps, the compare-exchange
kernel, backend composition, the sort-verifier kill matrix, and the
steady-state allocation guarantee are covered alongside, so a regression in
any semantics kernel fails here before it can reach a bench or a verifier.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.plan as plan_module
from repro import obs
from repro.core import Network, NetworkBuilder
from repro.core.compiled import compile_network
from repro.core.plan import PlanExecutor, lower_network, plan_executor
from repro.core.semantics import (
    _MAX_CE_WIDTH,
    CountOverflowError,
    _ce_pairs,
    get_semantics,
)
from repro.faults.harness import run_conformance, verifiers_for_backend
from repro.faults.mutator import stuck_balancer
from repro.networks import k_network, l_network, r_network
from repro.sim import (
    evaluate_comparators,
    propagate_counts,
    propagate_counts_reference,
    quiescent_counts,
)
from repro.sim.token_sim import TokenSimulator


# ---------------------------------------------------------------------------
# Inline legacy oracles: the deleted per-layer walkers, verbatim semantics.
# ---------------------------------------------------------------------------


def legacy_count_walker(net: Network, x: np.ndarray) -> np.ndarray:
    """Pre-substrate quiescent-count walker: one gather / floor-divide /
    scatter per width group per layer over the compiled net."""
    comp = compile_network(net)
    x = np.atleast_2d(np.asarray(x, dtype=np.int64))
    state = np.zeros((comp.num_wires, x.shape[0]), dtype=np.int64)
    state[comp.input_idx] = x.T
    for layer in comp.layers:
        for group in layer:
            totals = state[group.in_idx].sum(axis=1)  # (k, B)
            q, r = np.divmod(totals, group.width)
            j = np.arange(group.width)[None, :, None]
            state[group.out_idx] = q[:, None, :] + (j < r[:, None, :])
    return state[comp.output_idx].T


def legacy_sort_walker(net: Network, values: np.ndarray) -> np.ndarray:
    """Pre-substrate comparator walker: ``np.sort`` per width group,
    descending along the balancer axis."""
    comp = compile_network(net)
    values = np.atleast_2d(np.asarray(values))
    state = np.zeros((comp.num_wires, values.shape[0]), dtype=values.dtype)
    state[comp.input_idx] = values.T
    for layer in comp.layers:
        for group in layer:
            state[group.out_idx] = np.sort(state[group.in_idx], axis=1)[:, ::-1]
    return state[comp.output_idx].T


def reference_with_overrides(net: Network, values: np.ndarray) -> np.ndarray:
    """Per-balancer comparator oracle honoring ``fault_overrides``: a stuck
    balancer does not compare — values pass through unsorted."""
    overrides = getattr(net, "fault_overrides", None) or {}
    state: dict[int, object] = dict(zip(net.inputs, values))
    for b in net.balancers:
        ins = [state[w] for w in b.inputs]
        outs = ins if b.index in overrides else sorted(ins, reverse=True)
        state.update(zip(b.outputs, outs))
    return np.array([state[w] for w in net.outputs], dtype=np.asarray(values).dtype)


# ---------------------------------------------------------------------------
# Hypothesis strategy: arbitrary irregular layered networks (mixed balancer
# widths, partially-balanced layers, zero-layer degenerates).
# ---------------------------------------------------------------------------


@st.composite
def random_networks(draw, max_width: int = 10, max_layers: int = 5) -> Network:
    width = draw(st.integers(min_value=2, max_value=max_width))
    n_layers = draw(st.integers(min_value=0, max_value=max_layers))
    b = NetworkBuilder(width)
    wires = list(b.inputs)
    for _ in range(n_layers):
        perm = draw(st.permutations(list(range(width))))
        pos = 0
        new_wires = list(wires)
        while pos + 1 < width:
            size = draw(st.integers(min_value=2, max_value=min(4, width - pos)))
            group = [wires[perm[pos + k]] for k in range(size)]
            outs = b.balancer(group)
            for k in range(size):
                new_wires[perm[pos + k]] = outs[k]
            pos += size
            if draw(st.booleans()):
                break  # leave the rest of this layer unbalanced
        wires = new_wires
    return b.finish(wires, name="fuzz")


FAMILY_NETS = [
    pytest.param(lambda: k_network([2, 2, 2]), id="K(2,2,2)"),
    pytest.param(lambda: k_network([3, 2]), id="K(3,2)"),
    pytest.param(lambda: k_network([2, 3], variant="searched"), id="K(2,3)[searched]"),
    pytest.param(lambda: l_network([2, 2, 2]), id="L(2,2,2)"),
    pytest.param(lambda: r_network(3, 4), id="R(3,4)"),
]


# ---------------------------------------------------------------------------
# The compare-exchange kernel itself
# ---------------------------------------------------------------------------


class TestCEKernel:
    def test_ce_pairs_sort_by_zero_one_principle(self):
        """Exhaustive 0-1 proof of the Batcher pair generator, past the
        kernel's width ceiling so the fallback boundary is covered too."""
        for n in range(2, _MAX_CE_WIDTH + 3):
            pairs = _ce_pairs(n)
            for m in range(2**n):
                v = [(m >> i) & 1 for i in range(n)]
                for i, j in pairs:
                    if v[i] < v[j]:
                        v[i], v[j] = v[j], v[i]
                assert v == sorted(v, reverse=True), (n, m)

    def test_ce_pair_counts_are_optimal_for_small_widths(self):
        # Known-optimal comparator counts for n <= 8 (Knuth §5.3.4).
        assert [len(_ce_pairs(n)) for n in range(2, 9)] == [1, 3, 5, 9, 12, 16, 19]

    @pytest.mark.parametrize("p", range(3, _MAX_CE_WIDTH + 3))
    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16, np.float64])
    def test_single_balancer_matches_descending_sort(self, p, dtype):
        """One p-balancer, every dtype class: the CE path (p <= ceiling) and
        the np.sort fallback (wider) must agree with a descending sort."""
        b = NetworkBuilder(p)
        net = b.finish(list(b.balancer(list(b.inputs))), name=f"b{p}")
        rng = np.random.default_rng(p)
        x = rng.integers(0, 100, size=(64, p)).astype(dtype)
        out = evaluate_comparators(net, x)
        want = np.sort(x, axis=1)[:, ::-1]
        assert out.dtype == x.dtype
        assert out.tobytes() == np.ascontiguousarray(want).tobytes()


# ---------------------------------------------------------------------------
# Plan path == legacy walkers, byte-identical
# ---------------------------------------------------------------------------


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(random_networks(), st.data())
    def test_irregular_networks_all_semantics(self, net, data):
        x = np.array(
            data.draw(
                st.lists(st.integers(0, 30), min_size=net.width, max_size=net.width)
            ),
            dtype=np.int64,
        )
        assert propagate_counts(net, x).tobytes() == legacy_count_walker(net, x)[0].tobytes()
        assert quiescent_counts(net, x).tobytes() == legacy_count_walker(net, x)[0].tobytes()
        vals = np.array(
            data.draw(
                st.lists(st.integers(-50, 50), min_size=net.width, max_size=net.width)
            )
        )
        assert evaluate_comparators(net, vals).tobytes() == legacy_sort_walker(net, vals)[0].tobytes()

    @pytest.mark.parametrize("build", FAMILY_NETS)
    def test_families_batch_byte_identity(self, build):
        net = build()
        rng = np.random.default_rng(0)
        x = rng.integers(0, 64, size=(32, net.width))
        assert propagate_counts(net, x).tobytes() == legacy_count_walker(net, x).tobytes()
        assert quiescent_counts(net, x).tobytes() == legacy_count_walker(net, x).tobytes()
        vals = rng.integers(-1000, 1000, size=(32, net.width))
        assert evaluate_comparators(net, vals).tobytes() == legacy_sort_walker(net, vals).tobytes()

    @pytest.mark.parametrize("build", FAMILY_NETS)
    def test_token_semantics_matches_token_simulator(self, build):
        """The batched quiescent path must land exactly where the
        step-granular scheduler simulation lands."""
        net = build()
        counts = np.zeros(net.width, dtype=np.int64)
        counts[: max(net.width // 2, 1)] = 3
        sim = TokenSimulator(net, seed=0)
        sim.inject(counts)
        want = sim.run("random").output_counts
        assert list(quiescent_counts(net, counts)) == list(want)

    @settings(max_examples=25, deadline=None)
    @given(random_networks(max_width=6, max_layers=3), st.data())
    def test_fault_overrides_take_the_override_sweep(self, net, data):
        """Stuck mutants route through ``Semantics.apply_overridden``; pin
        the sort sweep against a per-balancer oracle and the count sweep
        against conservation + the stuck-port invariant."""
        if net.size == 0:
            return
        idx = data.draw(st.integers(0, net.size - 1))
        port = data.draw(st.integers(0, net.balancers[idx].width - 1))
        faulty = stuck_balancer(net, idx, port)
        vals = np.array(
            data.draw(
                st.lists(st.integers(-20, 20), min_size=net.width, max_size=net.width)
            )
        )
        assert list(evaluate_comparators(faulty, vals)) == list(
            reference_with_overrides(faulty, vals)
        )
        x = np.array(
            data.draw(
                st.lists(st.integers(0, 9), min_size=net.width, max_size=net.width)
            ),
            dtype=np.int64,
        )
        out = propagate_counts(faulty, x)
        assert int(out.sum()) == int(x.sum())  # overrides still conserve
        assert out.tobytes() == quiescent_counts(faulty, x).tobytes()

    def test_reference_oracles_still_agree(self):
        """Belt and braces: the per-balancer references shipped in sim/*
        agree with the inline walkers on a family net."""
        net = k_network([2, 3])
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.integers(0, 40, size=net.width)
            assert list(propagate_counts_reference(net, x)) == list(
                legacy_count_walker(net, x)[0]
            )


# ---------------------------------------------------------------------------
# Backend composition
# ---------------------------------------------------------------------------


class TestBackends:
    def test_bitsliced_sort_matches_int64_on_zero_one(self):
        net = k_network([2, 2, 2])
        rng = np.random.default_rng(2)
        zo = (rng.random((128, net.width)) < rng.random((128, 1))).astype(np.int64)
        lanes = plan_executor(net, backend="int64", semantics="sort").run(zo)
        packed = plan_executor(net, backend="bitsliced", semantics="sort").run(zo)
        assert lanes.tobytes() == packed.tobytes()
        assert lanes.tobytes() == legacy_sort_walker(net, zo).tobytes()

    def test_bitsliced_token_is_rejected(self):
        net = k_network([2, 2])
        with pytest.raises(ValueError, match="bitsliced"):
            plan_executor(net, backend="bitsliced", semantics="token")

    def test_semantics_share_one_scratch_pool_per_backend(self):
        net = k_network([2, 2])
        exc = plan_executor(net, semantics="count")
        exs = plan_executor(net, semantics="sort")
        ext = plan_executor(net, semantics="token")
        assert exc.pool is exs.pool is ext.pool
        assert exc is not exs


# ---------------------------------------------------------------------------
# The sort-semantics verifier still kills mutants
# ---------------------------------------------------------------------------


class TestKillMatrix:
    def test_sort_verifier_alone_leaves_no_escapes(self):
        """The 0-1 sorting verifier, pinned to the int64 plan path, must
        kill every live mutant of the comparator-visible fault classes."""
        sorting = {"sorting": verifiers_for_backend("int64")["sorting"]}
        matrix = run_conformance(
            networks=[k_network([2, 2])],
            faults=("stuck", "drop", "flip", "swap_outputs"),
            verifiers=sorting,
            seed=0,
            sites_per_fault=3,
            backend="int64",
        )
        assert matrix.trials, "no mutants injected"
        assert matrix.complete(), [t.as_dict() for t in matrix.escapes()]
        killed = sum(matrix.cell(f, "sorting")[0] for f in matrix.faults)
        assert killed > 0


# ---------------------------------------------------------------------------
# Steady-state allocation guarantee (mirrors the serve buffer-reuse test)
# ---------------------------------------------------------------------------


class TestSteadyStateAllocation:
    def test_single_vector_sort_path_reuses_buffers(self):
        """Repeated single-vector ``evaluate_comparators`` calls must hit
        the memoized plan executor: after one warmup, zero new scratch
        allocations and one pool reuse per call."""
        net = k_network([2, 2, 2])
        vec = np.arange(net.width)[::-1].copy()
        evaluate_comparators(net, vec)  # warm: lowering + scratch alloc
        ex = plan_executor(net, semantics="sort")
        allocs_after_warmup = ex.buffer_allocs
        reuses_before = ex.buffer_reuses
        for shift in range(5):
            evaluate_comparators(net, np.roll(vec, shift))
        assert ex.buffer_allocs == allocs_after_warmup, "steady state allocated"
        assert ex.buffer_reuses == reuses_before + 5


# ---------------------------------------------------------------------------
# Narrow evaluation dtypes, row tiles, and the overflow contract
# ---------------------------------------------------------------------------

#: The integer types a sort may be evaluated in, in the executor's order.
NARROWING_ORDER = (
    np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64,
)


def narrowest_holding(lo: int, hi: int) -> np.dtype:
    """The spec of the sort narrowing: first type whose range holds [lo, hi]."""
    return next(
        np.dtype(t)
        for t in NARROWING_ORDER
        if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max
    )


def widest_balancer(net: Network) -> int:
    return max((b.width for b in net.balancers), default=1)


def eval_dtypes(ex: PlanExecutor) -> set[str]:
    """The dtypes an executor's scratch pool holds buffers for."""
    return {dtype for _, dtype in ex.scratch_stats()["pooled_keys"]}


def tile_rows(ex: PlanExecutor, itemsize: int) -> int:
    """The row-tile rule: ``max(64, TILE_BUDGET // (num_wires * itemsize))``."""
    return max(64, plan_module.TILE_BUDGET // (ex.plan.num_wires * itemsize))


def row_with_sum(rng, total: int, width: int) -> np.ndarray:
    return rng.multinomial(total, np.full(width, 1.0 / width)).astype(np.int64)


class TestNarrowDtypes:
    @settings(max_examples=40, deadline=None)
    @given(
        random_networks(),
        st.sampled_from([(np.int8, np.int16), (np.int16, np.int32), (np.int32, np.int64)]),
        st.integers(-2, 2),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_count_token_row_sums_straddle_each_threshold(
        self, net, edge, delta, rows, seed
    ):
        """The largest row sum sits within 2 of ``iinfo.max - widest
        balancer``: at or under it the batch runs in the narrow type, past
        it in the next, and outputs never change."""
        narrow, wide = edge
        top = int(np.iinfo(narrow).max) - widest_balancer(net) + delta
        rng = np.random.default_rng(seed)
        x = np.stack(
            [row_with_sum(rng, top, net.width)]
            + [row_with_sum(rng, int(rng.integers(0, top + 1)), net.width) for _ in range(rows)]
        )
        x = x[rng.permutation(len(x))]
        want = legacy_count_walker(net, x)
        expected = np.dtype(narrow if delta <= 0 else wide).name
        for sem, evaluate in (("count", propagate_counts), ("token", quiescent_counts)):
            out = evaluate(net, x)
            assert out.dtype == np.int64
            assert out.tobytes() == want.tobytes()
            ex = PlanExecutor(lower_network(net), semantics=sem)
            assert ex.run(x).tobytes() == want.tobytes()
            assert eval_dtypes(ex) == {expected}
        top_row = int(np.argmax(x.sum(axis=1)))
        assert list(want[top_row]) == list(propagate_counts_reference(net, x[top_row]))

    @settings(max_examples=60, deadline=None)
    @given(
        random_networks(),
        st.sampled_from([np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32]),
        st.booleans(),
        st.integers(-1, 1),
        st.data(),
    )
    def test_sort_ranges_at_each_integer_edge(self, net, edge_type, at_max, delta, data):
        """One end of the batch's range sits at a type's min or max (or one
        past it), the other anywhere inside the type, negatives included."""
        info = np.iinfo(edge_type)
        edge = (int(info.max) if at_max else int(info.min)) + delta
        other = data.draw(st.integers(int(info.min), int(info.max)))
        lo, hi = min(edge, other), max(edge, other)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.integers(lo, hi, size=(4, net.width), endpoint=True, dtype=np.int64)
        x.flat[rng.permutation(x.size)[:2]] = (lo, hi)
        out = evaluate_comparators(net, x)
        assert out.dtype == np.int64
        assert out.tobytes() == legacy_sort_walker(net, x).tobytes()
        ex = PlanExecutor(lower_network(net), semantics="sort")
        assert ex.run(x).tobytes() == out.tobytes()
        assert eval_dtypes(ex) == {narrowest_holding(lo, hi).name}

    @pytest.mark.parametrize(
        ("lo", "hi", "evaluated"),
        [
            (0, 2**63, "uint64"),
            (2**63 - 1, 2**64 - 1, "uint64"),
            (0, 2**32, "int64"),
            (0, 2**16 - 1, "uint16"),
        ],
    )
    def test_sort_uint64_past_int64(self, lo, hi, evaluated):
        net = k_network([2, 3])
        rng = np.random.default_rng(hi % 1000)
        x = rng.integers(lo, hi, size=(16, net.width), endpoint=True, dtype=np.uint64)
        x[0, :2] = (lo, hi)
        ex = PlanExecutor(lower_network(net), semantics="sort")
        out = ex.run(x)
        assert out.dtype == np.uint64
        assert out.tobytes() == legacy_sort_walker(net, x).tobytes()
        assert evaluate_comparators(net, x).tobytes() == out.tobytes()
        assert eval_dtypes(ex) == {evaluated}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32, np.uint16, np.bool_])
    def test_sort_other_dtypes_keep_caller_dtype(self, dtype):
        """Floats (integral-valued ones too) and bools are evaluated as
        given; narrower integer inputs still narrow; output is always the
        caller's dtype."""
        net = l_network([2, 3])
        rng = np.random.default_rng(3)
        x = rng.integers(-40, 40, size=(32, net.width))
        if np.dtype(dtype).kind == "u":
            x = np.abs(x)
        x = x.astype(dtype)
        if np.dtype(dtype).kind == "f":
            x[0, 0], x[1, 1] = np.inf, -np.inf
            x[2:] += np.asarray(0.25, dtype=dtype)
        ex = PlanExecutor(lower_network(net), semantics="sort")
        out = ex.run(x)
        assert out.dtype == x.dtype
        assert out.tobytes() == legacy_sort_walker(net, x).tobytes()
        if np.dtype(dtype).kind in "iu":
            assert eval_dtypes(ex) == {narrowest_holding(int(x.min()), int(x.max())).name}
        else:
            assert eval_dtypes(ex) == {np.dtype(dtype).name}


    @pytest.mark.parametrize("sem", ["count", "token"])
    def test_negative_counts_keep_int64_arithmetic(self, sem):
        """``PlanExecutor.run`` does not validate (the public evaluators
        do): a negative count skips narrowing and matches the walker."""
        net = k_network([2, 3])
        x = np.random.default_rng(4).integers(-300, 300, size=(16, net.width))
        ex = PlanExecutor(lower_network(net), semantics=sem)
        assert ex.run(x).tobytes() == legacy_count_walker(net, x).tobytes()
        assert eval_dtypes(ex) == {"int64"}


class TestRowTiles:
    @settings(max_examples=15, deadline=None)
    @given(random_networks(), st.sampled_from(["count", "sort", "token"]), st.data())
    def test_batches_around_the_tile(self, net, sem, data):
        """With the smallest tile (64 rows), batches of 1, tile - 1, tile,
        tile + 1 and 3 tile + 5 rows match the legacy walkers, and tail
        tiles run in the full tile's buffers (no pool key of their own)."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(plan_module, "TILE_BUDGET", 1)
            ex = PlanExecutor(lower_network(net), semantics=sem)
            tile = tile_rows(ex, 1)
        assert tile == 64
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        walker = legacy_sort_walker if sem == "sort" else legacy_count_walker
        for batch in (1, tile - 1, tile, tile + 1, 3 * tile + 5):
            x = rng.integers(0, 4, size=(batch, net.width), dtype=np.int64)
            out = ex.run(x)
            assert out.dtype == np.int64 and out.flags.c_contiguous
            assert out.tobytes() == walker(net, x).tobytes()
            if sem != "sort":  # first and last row: first and tail tile
                for r in (0, batch - 1):
                    assert list(out[r]) == list(propagate_counts_reference(net, x[r]))
        # int8 throughout: one key per batch size up to the tile, then none.
        assert ex.scratch_stats()["pooled_keys"] == [(1, "int8"), (63, "int8"), (64, "int8")]
        assert ex.buffer_allocs == 3 and ex.buffer_reuses == 2

    @pytest.mark.parametrize("sem", ["count", "sort", "token"])
    def test_default_budget_tiles_an_int64_batch(self, sem):
        """K(2^6) evaluated in int64 tiles at the module's default budget:
        every batch size around the tile is byte-identical to the walkers
        and to the per-balancer reference."""
        net = k_network([2] * 6)
        ex = PlanExecutor(lower_network(net), semantics=sem)
        tile = tile_rows(ex, 8)
        rng = np.random.default_rng(11)
        high = 2**40 if sem != "sort" else 2**62
        walker = legacy_sort_walker if sem == "sort" else legacy_count_walker
        for batch in (1, tile - 1, tile, tile + 1, 3 * tile + 5):
            x = rng.integers(0 if sem != "sort" else -high, high, size=(batch, net.width))
            out = ex.run(x)
            assert out.tobytes() == walker(net, x).tobytes()
            if sem != "sort":
                assert list(out[-1]) == list(propagate_counts_reference(net, x[-1]))
        assert ex.scratch_stats()["pooled_keys"] == [
            (1, "int64"), (tile - 1, "int64"), (tile, "int64"),
        ]

    def test_executor_span_reports_dtype_and_tiles(self):
        net = k_network([2, 2, 2])
        ex = PlanExecutor(lower_network(net))
        tile = tile_rows(ex, 1)
        with obs.capture():
            ex.run(np.ones((3, net.width), dtype=np.int64))
            ex.run(np.ones((2 * tile + 1, net.width), dtype=np.int64))
            spans = obs.default_span_recorder().completed("executor")
        assert [(s.fields["dtype"], s.fields["tiles"]) for s in spans] == [
            ("int8", 1),
            ("int8", 3),
        ]


class TestCountOverflow:
    def test_exported_and_an_overflow_error(self):
        assert repro.CountOverflowError is CountOverflowError
        assert issubclass(CountOverflowError, OverflowError)

    @pytest.mark.parametrize("evaluate", [propagate_counts, quiescent_counts])
    def test_wrapping_batch_raises_instead_of_returning_zeros(self, evaluate):
        net = k_network([2, 2])
        with pytest.raises(CountOverflowError, match="int64 limit"):
            evaluate(net, np.full((1, 4), 2**62))

    @pytest.mark.parametrize("evaluate", [propagate_counts, quiescent_counts])
    def test_loose_bound_falls_back_to_the_exact_check(self, evaluate):
        """max * width overflows, the row sums do not: evaluate in int64."""
        net = k_network([2, 2])
        x = np.array([[2**62, 0, 0, 0], [0, 2**61, 2**61, 5]])
        out = evaluate(net, x)
        for row, want in zip(out, x):
            assert list(row) == list(propagate_counts_reference(net, want))

    @pytest.mark.parametrize("evaluate", [propagate_counts, quiescent_counts])
    def test_limit_is_int64_max_minus_widest_balancer(self, evaluate):
        net = k_network([2, 2])
        limit = int(np.iinfo(np.int64).max) - widest_balancer(net)
        ok = np.array([[limit - 3, 1, 1, 1]])
        assert list(evaluate(net, ok)[0]) == list(propagate_counts_reference(net, ok[0]))
        with pytest.raises(CountOverflowError):
            evaluate(net, ok + np.array([[0, 0, 0, 1]]))

    def test_fault_override_sweep_raises_too(self):
        faulty = stuck_balancer(k_network([2, 2]), 0, 0)
        for evaluate in (propagate_counts, quiescent_counts):
            with pytest.raises(CountOverflowError):
                evaluate(faulty, np.full(4, 2**62))
