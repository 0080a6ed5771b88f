"""The benchmark's workloads, each run on one event loop in this process.

Every workload builds its inputs from the seed it is given, sets itself up
several times cold (the median is ``setup_s``), measures for the given
number of seconds, checks every output it measured, and tears down all it
opened before it returns: client connections, then the router, then the
server, then the WAL.  No workload starts a thread or a child process.
"""

from __future__ import annotations

import asyncio
import gc
import shutil
import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro import k_network, l_network, quiescent_counts
from repro.cluster import ClusterRouter, ShardSpec, TokenWAL, make_shard_service
from repro.core.plan import plan_executor
from repro.core.sequences import is_step
from repro.networks.counting import clear_construction_cache
from repro.serve import CountingServer, CountingService, TCPCounterClient, audit_values
from repro.sim.count_sim import propagate_counts, propagate_counts_reference
from repro.sim.sort_sim import evaluate_comparators

from . import probes

SETUP_REPS = 25

# batch_eval: three width-~60 networks that between them take every kernel
# path -- K(2^6) balancer widths 2/4, L(3,4,5) widths 2-5 (the sort
# semantics' Batcher compare-exchange), K(3,4,5) widths 12-20 (the np.sort
# fallback) -- each evaluated under all three semantics.
BATCH_NETWORKS = ((k_network, (2, 2, 2, 2, 2, 2)), (l_network, (3, 4, 5)), (k_network, (3, 4, 5)))
EVALUATORS = (
    ("count", propagate_counts),
    ("sort", evaluate_comparators),
    ("token", quiescent_counts),
)
SEMANTICS = tuple(sem for sem, _ in EVALUATORS)
BATCH_ROWS = 8192
# Per network: one batch of wide-range token counts, one of small counts
# with many ties.
BATCH_VALUE_RANGES = (1 << 16, 4)
REFERENCE_ROWS = 4  # rows per batch re-evaluated by the per-balancer reference

SERVE_FACTORS = (2, 3, 2)
OPEN_RATE = 2000.0  # requests/s, well under in-process capacity
DURABLE_CONNECTIONS = 2


def _cold() -> None:
    """Forget every earlier set-up before the next one is timed.

    The plan and executor memos are keyed weakly by network, and networks
    compare structurally, so a set-up whose predecessor is still alive (a
    service is a reference cycle) would find its executor already lowered.
    """
    gc.collect()
    clear_construction_cache()


@dataclass
class Result:
    """What one workload run measured.

    ``latencies_s`` and ``done_at`` hold one entry per measured operation
    (``batch_eval``: per round of every job), in completion order;
    ``done_at`` is on the clock the throughput is taken on, which starts at
    ``start``.  Percentiles and throughput are taken per window
    (``windows`` equal slices of the samples) and the median over windows
    is reported, so one burst of machine noise moves one window.  Samples
    are kept in flat arrays so that their memory stays small next to the
    program's.
    """

    windows: int
    op_rows: int = 1  # rows one sample stands for (batch_eval: a whole round)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # Per cold set-up: (total, build, lower) seconds at the reference speed.
    setup_reps: list[tuple[float, float, float]] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)  # total, unscaled
    latencies_s: array = field(default_factory=lambda: array("d"))
    done_at: array = field(default_factory=lambda: array("d"))
    start: float = 0.0
    rss_mb: float = 0.0  # peak RSS at the end of the measured window
    cpu_s: float = 0.0  # process CPU time over all operations ...
    completed: int = 0  # ... and how many completed, for the tracing overhead
    # Always-measured per-layer figures (counters the program keeps anyway).
    layer: dict[str, float] = field(default_factory=dict)
    # batch_eval: evaluator wall time and values evaluated, per semantics.
    wrapper_s: dict[str, float] = field(default_factory=dict)
    values: dict[str, int] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)

    def add_setup(self, total: float, build: float, lower: float) -> None:
        """Record one cold set-up, scaled by ``probes.host_scale()`` taken
        right after it."""
        scale = probes.host_scale()
        self.setup_reps.append((total * scale, build * scale, lower * scale))
        self.setup_wall_s.append(total)

    def sample(self, latency: float, done: float) -> None:
        self.latencies_s.append(latency)
        self.done_at.append(done)

    @property
    def setup_s(self) -> float:
        return statistics.median(r[0] for r in self.setup_reps)

    def window_rates(self) -> list[float]:
        """Operations per second in each window."""
        rates, prev = [], self.start
        for chunk in np.array_split(np.asarray(self.done_at), self.windows):
            if len(chunk):
                rates.append(len(chunk) * self.op_rows / (chunk[-1] - prev))
                prev = chunk[-1]
        return rates


# -- batch_eval ---------------------------------------------------------------


def _check_batch(net, x, outs, rng) -> dict[str, int]:
    """Wrong rows per semantics for one batch's three outputs."""
    count, sort, token = outs["count"], outs["sort"], outs["token"]
    step = (count[:, :-1] >= count[:, 1:]).all(axis=1) & (count[:, 0] - count[:, -1] <= 1)
    kept = count.sum(axis=1) == x.sum(axis=1)
    bad_count = ~(step & kept)
    for r in rng.choice(x.shape[0], size=REFERENCE_ROWS, replace=False):
        if not is_step(count[r]) or not np.array_equal(
            count[r], propagate_counts_reference(net, x[r])
        ):
            bad_count[r] = True
    descending = (sort[:, :-1] >= sort[:, 1:]).all(axis=1)
    permutation = (np.sort(sort, axis=1) == np.sort(x, axis=1)).all(axis=1)
    bad_token = (token != count).any(axis=1)
    return {
        "count": int(bad_count.sum()),
        "sort": int((~(descending & permutation)).sum()),
        "token": int(bad_token.sum()),
    }


def batch_eval(seed: int, seconds: float, trace: probes.Trace | None, tmp_dir: Path) -> Result:
    res = Result(windows=3)
    for _ in range(SETUP_REPS):
        nets = executors = None  # the previous set-up must be gone: see _cold
        _cold()
        t0 = time.perf_counter()
        nets = [make(list(factors)) for make, factors in BATCH_NETWORKS]
        t1 = time.perf_counter()
        executors = [(sem, plan_executor(net, semantics=sem)) for net in nets for sem in SEMANTICS]
        t2 = time.perf_counter()
        res.add_setup(t2 - t0, t1 - t0, t2 - t1)

    # Every (network, batch) is evaluated and checked once before timing;
    # the timed calls must then reproduce those outputs exactly.
    rng = np.random.default_rng(seed)
    jobs = []
    for net in nets:
        for high in BATCH_VALUE_RANGES:
            x = rng.integers(0, high, size=(BATCH_ROWS, net.width), dtype=np.int64)
            outs = {sem: evaluate(net, x) for sem, evaluate in EVALUATORS}
            for sem, wrong in _check_batch(net, x, outs, rng).items():
                res.attempted += 1
                if wrong:
                    res.fail(1, f"{net.name} {sem}: {wrong} of {BATCH_ROWS} rows wrong")
            jobs.extend((net, x, sem, evaluate, outs[sem]) for sem, evaluate in EVALUATORS)

    if trace is not None:
        for sem, ex in executors:
            trace.probe_executor(ex, sem)
    pools = list({id(ex.pool): ex.pool for _, ex in executors}.values())
    before = [(p.buffer_allocs, p.buffer_reuses) for p in pools]
    res.wrapper_s = dict.fromkeys(SEMANTICS, 0.0)
    res.values = dict.fromkeys(SEMANTICS, 0)
    res.op_rows = BATCH_ROWS * len(jobs)

    # One sample per whole round of every job, so each kernel path and
    # semantics weighs in every sample.  Throughput is taken on a clock
    # that runs only inside evaluator calls.
    busy = 0.0
    cpu0 = time.process_time()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        round_s = 0.0
        for net, x, sem, evaluate, expected in jobs:
            t0 = time.perf_counter()
            out = evaluate(net, x)
            dt = time.perf_counter() - t0
            res.attempted += 1
            if not np.array_equal(out, expected):
                res.fail(1, f"{net.name} {sem}: output changed between calls")
            round_s += dt
            res.wrapper_s[sem] += dt
            res.values[sem] += x.size
        busy += round_s
        res.sample(round_s, busy)
    res.cpu_s = time.process_time() - cpu0
    res.rss_mb = probes.peak_rss_mb()
    res.completed = len(res.latencies_s)

    allocs = sum(p.buffer_allocs - a for p, (a, _) in zip(pools, before))
    reuses = sum(p.buffer_reuses - r for p, (_, r) in zip(pools, before))
    res.layer["plan.buffer_reuse_frac"] = reuses / max(allocs + reuses, 1)
    return res


# -- serving, in process --------------------------------------------------------

WARMUP_S = 0.5  # serving load before the measured window opens, not recorded


async def _cold_setups(res: Result, setup, teardown):
    """Run ``setup()`` SETUP_REPS times from cold and keep the last one.

    ``setup`` returns its ``(total, build, lower)`` seconds and what it made;
    every set-up but the last is torn down and dropped before the next.
    """
    made = None
    for i in range(SETUP_REPS):
        _cold()
        timings, made = await setup()
        res.add_setup(*timings)
        if i < SETUP_REPS - 1:
            await teardown(made)
            made = None
    return made


async def _service_setup():
    """Cold bring-up of the in-process service."""
    t0 = time.perf_counter()
    net = k_network(list(SERVE_FACTORS))
    t1 = time.perf_counter()
    ex = plan_executor(net)
    t2 = time.perf_counter()
    svc = CountingService(net)
    await svc.start()
    return (time.perf_counter() - t0, t1 - t0, t2 - t1), (svc, ex)


def _check_served(res: Result, values: array, issued: int) -> None:
    """The exactly-once audit over every value the clients received."""
    values = values.tolist()
    audit = audit_values(values)
    if not audit["exactly_once"] or len(values) != issued or (values and min(values) != 0):
        wrong = audit["duplicates"] + audit["gap_total"] + abs(issued - len(values))
        res.fail(
            max(wrong, 1),
            f"exactly-once audit failed: {len(values)} values received, {issued} issued, "
            f"{audit['duplicates']} duplicates, {audit['gap_total']} gaps",
        )


def _serving_layer(res: Result, svc, ex) -> None:
    res.layer["serve.shed"] = svc.batcher_stats.rejected
    pool = ex.pool
    res.layer["plan.buffer_reuse_frac"] = pool.buffer_reuses / max(
        pool.buffer_allocs + pool.buffer_reuses, 1
    )


async def _serve_open(seed: int, seconds: float, trace, tmp_dir: Path) -> Result:
    res = Result(windows=10)
    svc, ex = await _cold_setups(res, _service_setup, lambda made: made[0].stop())
    if trace is not None:
        trace.probe_service(svc, ex)
    rng = np.random.default_rng(seed)
    span = WARMUP_S + seconds
    offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE, size=int(OPEN_RATE * span * 1.5) + 64))
    offsets = offsets[offsets < span]
    values = array("q")
    late = array("d")
    loop = asyncio.get_running_loop()
    inflight: set[asyncio.Task] = set()
    start = time.perf_counter() + 0.01
    res.start = start + WARMUP_S

    async def request(due: float) -> None:
        lag = time.perf_counter() - due
        try:
            values.append(await svc.fetch_and_increment())
        except RuntimeError as exc:  # shed, or an exactly-once violation
            res.fail(1, f"request failed: {type(exc).__name__}: {exc}")
            return
        if due >= res.start:
            t1 = time.perf_counter()
            res.sample(t1 - due, t1)
            late.append(lag)

    cpu0 = time.process_time()
    try:
        for off in offsets:
            due = start + off
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            task = loop.create_task(request(due))
            inflight.add(task)
            task.add_done_callback(inflight.discard)
        await asyncio.gather(*inflight)
        res.rss_mb = probes.peak_rss_mb()
    finally:
        for task in inflight:
            task.cancel()
        await asyncio.gather(*inflight, return_exceptions=True)
        await svc.stop()
    res.cpu_s = time.process_time() - cpu0
    res.attempted = len(offsets)
    res.completed = len(values)
    res.layer["gen.late_ms.p50"] = probes.pct(late, 50) * 1e3
    res.layer["gen.late_ms.p99"] = probes.pct(late, 99) * 1e3
    _serving_layer(res, svc, ex)
    _check_served(res, values, svc.issued)
    return res


async def _closed_loop(res: Result, calls, seconds: float, values: array, trace) -> None:
    """One client coroutine per entry of ``calls``, each sending its next
    request when the last one is answered, for WARMUP_S + ``seconds``."""
    res.start = time.perf_counter() + WARMUP_S
    deadline = res.start + seconds

    async def client(call) -> None:
        while (t0 := time.perf_counter()) < deadline:
            res.attempted += 1
            try:
                got = await call()
            except OSError as exc:  # the connection is gone
                res.fail(1, f"connection lost: {exc}")
                return
            except (RuntimeError, ValueError) as exc:  # shed, violation, ERR line
                res.fail(1, f"request failed: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            res.completed += 1
            values.extend(got)
            if t0 >= res.start:
                res.sample(t1 - t0, t1)
            if trace is not None:
                trace.add("hop_s", t1 - t0 - trace.service_s.pop(got[0], t1 - t0))

    cpu0 = time.process_time()
    await asyncio.gather(*(client(call) for call in calls))
    res.cpu_s = time.process_time() - cpu0
    res.rss_mb = probes.peak_rss_mb()


# -- serving, durable over TCP ----------------------------------------------------


class _DurableStack:
    """Router -> one shard CountingServer -> service -> WAL, all in process."""

    def __init__(self, wal_path: Path) -> None:
        self.wal_path = wal_path

    async def start(self) -> tuple[float, float, float]:
        t0 = time.perf_counter()
        spec = ShardSpec(
            shard_id=0,
            num_shards=1,
            factors=SERVE_FACTORS,
            construction="K",
            wal_path=str(self.wal_path),
            fsync=True,
        )
        net = spec.build_network()
        t1 = time.perf_counter()
        self.executor = plan_executor(net)
        t2 = time.perf_counter()
        # make_shard_service builds the spec's network; hand it the one just
        # built so the build and the lowering are timed apart.
        spec.build_network = lambda: net
        self.service, self.wal, _ = make_shard_service(spec)
        self.server = CountingServer(self.service)
        await self.server.start()
        self.router = ClusterRouter({0: self.server.address}, mode="line")
        await self.router.start()
        return time.perf_counter() - t0, t1 - t0, t2 - t1

    async def stop(self, clients) -> None:
        """Clients, then router, then server, then WAL.

        Each layer's connection handlers see EOF and finish before the layer
        is stopped, so no handler is cancelled mid-close.
        """
        for c in clients:
            await c.close()
        deadline = time.monotonic() + 5.0
        while self.router.active and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        await self.router.stop()
        await probes.settle(expected=1)  # the shard batcher's worker
        await self.server.stop()
        self.wal.close()


async def _serve_durable(seed: int, seconds: float, trace, tmp_dir: Path) -> Result:
    # Closed loop: every request is INC 1, so the seed fixes no input.
    res = Result(windows=10)
    try:
        rep = iter(range(SETUP_REPS))

        async def setup():
            stack = _DurableStack(tmp_dir / f"wal-{next(rep)}" / "shard-0.wal")
            return await stack.start(), stack

        stack = await _cold_setups(res, setup, lambda stack: stack.stop([]))
        svc = stack.service
        if trace is not None:
            trace.probe_service(svc, stack.executor, shard=True)
            trace.probe_wal(svc, stack.wal)

        values = array("q")
        clients = []
        try:
            for _ in range(DURABLE_CONNECTIONS):
                clients.append(await TCPCounterClient.connect(*stack.router.address))
            await _closed_loop(res, [c.inc for c in clients], seconds, values, trace)
        finally:
            await stack.stop(clients)
        durable = TokenWAL.replay(stack.wal_path).total
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    router = stack.router
    res.layer["router.forwarded"] = router.forwarded
    res.layer["router.shard_errors"] = router.shard_errors
    res.layer["router.throttled"] = router.throttled
    _serving_layer(res, svc, stack.executor)
    _check_served(res, values, svc.issued)
    if durable != svc.issued:
        res.fail(1, f"WAL replays {durable} tokens, the service issued {svc.issued}")
    return res


def _on_loop(coro_fn):
    """Run a serving workload on a fresh loop; fail it if a task outlives it."""

    def run(seed: int, seconds: float, trace, tmp_dir: Path) -> Result:
        async def main() -> Result:
            res = await coro_fn(seed, seconds, trace, tmp_dir)
            tasks = probes.pending_tasks()
            if tasks:
                res.fail(1, f"teardown: pending asyncio tasks {tasks}")
            return res

        return asyncio.run(main())

    return run


WORKLOADS = {
    "batch_eval": batch_eval,
    "serve_open": _on_loop(_serve_open),
    "serve_durable": _on_loop(_serve_durable),
}
