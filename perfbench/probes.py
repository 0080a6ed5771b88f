"""Measurement helpers: latency summaries, traced-mode probes, teardown checks.

The probes wrap the program's public calls from outside -- an instance
attribute shadowing ``PlanExecutor.run`` or ``CountingService.issue_batch``,
the ``Batcher.wrap_apply`` seam, the service's ``commit`` hook -- so the
program itself is measured unmodified.  They are installed only in a traced
run; the end-to-end numbers always come from an untraced run.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import resource
import socket
import time
from collections import defaultdict, deque

import numpy as np
from repro.serve.batching import OverloadedError

# Executor layers are bucketed by their widest segment: the dedicated
# width-2 kernel, the Batcher compare-exchange range of the sort semantics
# (widths 3-8), and the wide path (np.sort fallback / general floor-divide).
LAYER_BUCKETS = ("p2", "p3_8", "wide")


# Set-up is interpreter work that a shared 2-vCPU VM runs 1.5-1.8x slower
# for minutes at a time while a neighbour is busy.  A fixed reference task,
# timed right after each set-up, slows down with it; set-up times are
# reported scaled to the speed at which the reference takes REFERENCE_S
# (about its time on such a VM when the host is quiet).
REFERENCE_S = 0.01


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int) -> None:
        self.key = key
        self.kids: list[_Node] = []


def reference_task() -> int:
    """Fixed work shaped like a set-up: dicts of tuples, a small object
    graph, and many small-array NumPy calls."""
    table = {(i, i & 7): [i, i + 1] for i in range(10000)}
    nodes = [_Node(i * 3 % 17) for i in range(3000)]
    for i in range(1, len(nodes)):
        nodes[(i * 7) % i].kids.append(nodes[i])
    ranked = sorted(nodes, key=lambda n: (n.key, len(n.kids)))
    acc = len(table) + ranked[0].key
    for k in range(200):
        a = np.arange(k % 50 + 10)
        b = np.concatenate([a, a[::-1]])
        acc += int(np.argsort(b, kind="stable")[0]) + int(np.cumsum(b)[-1])
    return acc


def host_scale() -> float:
    """REFERENCE_S over the reference task's time now: the factor that
    turns a time just measured into one at the reference speed."""
    t0 = time.perf_counter()
    reference_task()
    return REFERENCE_S / (time.perf_counter() - t0)


def pct(samples, q: float) -> float:
    """The ``q``-th percentile of ``samples`` (0.0 when there are none)."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_buckets(plan) -> np.ndarray:
    """Bucket index (into LAYER_BUCKETS) of every layer of ``plan``."""
    widest = np.zeros(max(plan.depth, 1), dtype=np.int64)
    np.maximum.at(widest, plan.seg_layer, plan.seg_width)
    return np.where(widest <= 2, 0, np.where(widest <= 8, 1, 2))


def plan_bytes(plan, rows: int, itemsize: int) -> int:
    """Bytes one evaluation of ``rows`` rows moves, from array sizes.

    Every segment gathers its ``p * k`` inputs from the wire state and
    stores its ``p * k`` outputs back; the input scatter writes ``width``
    columns and the output gather plus copy move them twice more.
    Kernel-internal scratch traffic is not counted, so this is a floor.
    """
    seg_values = int((plan.seg_width * plan.seg_count).sum())
    return (2 * seg_values + 3 * plan.width) * rows * itemsize


class Trace:
    """Samples and sums collected by the probes of one traced run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sums: dict[str, float] = defaultdict(float)
        # Submit stamps of in-process requests not yet dispatched.  The
        # batcher is one FIFO queue, so the k requests of a dispatched batch
        # are the k oldest stamps.
        self.submitted: deque[float] = deque()
        # Shard service time of each dispensed value (serve_durable), so a
        # client can subtract it from its own latency.
        self.service_s: dict[int, float] = {}

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    # -- executor ---------------------------------------------------------

    def probe_executor(self, ex, label: str) -> None:
        """Time every ``ex.run`` and accumulate per-layer time by bucket."""
        plan = ex.plan
        buckets = layer_buckets(plan)
        masks = [(name, buckets == b) for b, name in enumerate(LAYER_BUCKETS)]
        layer_times = np.zeros(max(plan.depth, 1), dtype=np.float64)
        run = ex.run
        sums = self.sums

        def timed_run(x):
            layer_times[:] = 0.0
            t0 = time.perf_counter()
            out = run(x, layer_times=layer_times)
            dt = time.perf_counter() - t0
            sums[f"{label}.run_s"] += dt
            sums[f"{label}.runs"] += 1
            sums[f"{label}.bytes"] += plan_bytes(plan, x.shape[0], out.itemsize)
            for name, mask in masks:
                sums[f"layer.{name}"] += float(layer_times[mask].sum())
            return out

        ex.run = timed_run

    # -- serving ----------------------------------------------------------

    def probe_service(self, svc, executor, *, shard: bool = False) -> None:
        """Probe one CountingService: submit stamps, batches, issuance.

        In-process clients call ``fetch_and_increment``; a shard server
        calls ``fetch_and_increment_many``, and for a shard (``shard``) the
        probe also keeps each call's service time for the hop split.
        """
        submitted = self.submitted
        add = self.add
        name = "fetch_and_increment_many" if shard else "fetch_and_increment"
        call = getattr(svc, name)

        async def stamped(*args, **kwargs):
            t0 = time.perf_counter()
            submitted.append(t0)
            try:
                values = await call(*args, **kwargs)
            except OverloadedError:
                # Shed before it was queued: the stamp is still the newest.
                submitted.pop()
                raise
            if shard:
                dt = time.perf_counter() - t0
                self.service_s[values[0]] = dt
                add("service_s", dt)
            return values

        setattr(svc, name, stamped)

        def on_batch(apply, requests):
            now = time.perf_counter()
            for _ in requests:
                if submitted:
                    add("queue_wait_s", now - submitted.popleft())
            add("batch_size", len(requests))
            return apply(requests)

        svc._batcher.wrap_apply(on_batch)

        issue = svc.issue_batch

        def timed_issue(n):
            t0 = time.perf_counter()
            try:
                return issue(n)
            finally:
                add("issue_s", time.perf_counter() - t0)

        svc.issue_batch = timed_issue
        self.probe_executor(executor, "serve")

    def probe_wal(self, svc, wal) -> None:
        """Time every WAL append the service's commit hook makes."""
        append = wal.append
        add = self.add
        last = [wal.total]

        def timed_append(seq, total):
            t0 = time.perf_counter()
            rec = append(seq, total)
            add("wal_append_s", time.perf_counter() - t0)
            add("wal_tokens", total - last[0])
            last[0] = total
            return rec

        svc.commit = timed_append


# -- teardown ---------------------------------------------------------------


def pending_tasks() -> list[asyncio.Task]:
    """Tasks on the running loop other than the caller's."""
    me = asyncio.current_task()
    return [t for t in asyncio.all_tasks() if t is not me and not t.done()]


async def settle(expected: int, timeout: float = 5.0) -> None:
    """Yield to the loop until at most ``expected`` other tasks remain."""
    deadline = time.monotonic() + timeout
    while len(pending_tasks()) > expected and time.monotonic() < deadline:
        await asyncio.sleep(0.005)


def _listening_sockets() -> list[int]:
    fds = []
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{name}")
        except OSError:  # the fd closed while we were looking
            continue
        if not target.startswith("socket:"):
            continue
        try:
            dup = socket.fromfd(int(name), socket.AF_INET, socket.SOCK_STREAM)
        except OSError:
            continue
        with dup:
            try:
                if dup.getsockopt(socket.SOL_SOCKET, socket.SO_ACCEPTCONN):
                    fds.append(int(name))
            except OSError:
                continue
    return fds


def leaks() -> list[str]:
    """What a finished workload left behind in this process: child
    processes, threads other than the main one, listening sockets.  Empty
    when teardown was clean.  (Pending asyncio tasks are checked on the
    loop, by the workload runner.)"""
    found = []
    children = multiprocessing.active_children()
    if children:
        found.append(f"child processes alive: {children}")
    threads = os.listdir("/proc/self/task")
    if len(threads) != 1:
        found.append(f"{len(threads)} threads, expected only the main thread")
    listening = _listening_sockets()
    if listening:
        found.append(f"listening sockets still open: fds {listening}")
    return found
