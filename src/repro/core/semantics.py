"""Pluggable per-balancer semantics for the flat plan executor.

The paper's three views of one network — quiescent token counts,
descending comparator sorting, and asynchronous mod-``p`` token routing —
are isomorphic walks over the same wiring (paper §1, Figure 2).  Before
this module each view owned its own network walker; now a single
:class:`~repro.core.plan.ExecutionPlan` sweep is parameterized by a small
kernel object:

``CountSemantics``
    The quiescent-count transfer ``out[j] = ceil((T - j) / p)``: the
    branchless width-2 shift kernel plus the general in-place
    floor-divide kernel (a shift for power-of-two widths).
``SortSemantics``
    Descending compare-exchange: width-2 balancers become a branchless
    ``np.maximum`` / ``np.minimum`` pair, general ``p``-comparators an
    in-place ascending sort read out in reverse.  The evaluation dtype
    follows the *input's* dtype — sorting floats or int8 0-1 vectors
    through the int64 count kernels would corrupt them, so the executor's
    scratch pool keys buffers by ``(rows, dtype)``.
``TokenSemantics``
    The asynchronous balancer stepped to quiescence in batch: each
    balancer's state is its arrival count, token ``i`` leaves on port
    ``i mod p``, so a total of ``T`` arrivals decomposes into
    ``T // p`` full rounds plus a residue ``T mod p`` spread over the
    first ports — ``out[j] = T // p + (j < T mod p)``.  Numerically
    identical to ``CountSemantics`` (that identity *is* the paper's
    quiescence argument, and the differential suite pins it), but
    computed as explicit mod-``p`` state so the kernel is the batched
    form of :class:`~repro.sim.token_sim.TokenSimulator`'s hop rule.

**Narrow evaluation dtypes.**  :meth:`Semantics.prepare` picks the
dtype each batch is evaluated in, from the batch itself.  Balancers
conserve tokens, so no wire of a count or token evaluation ever holds more
than its row's input sum: those run in the narrowest *signed* type with
room for the row sum plus the widest balancer's ``p - 1`` rounding
headroom, and a row sum past int64 raises
:class:`CountOverflowError` instead of wrapping.  Comparators only move
values, so integer sorts run in the narrowest signed or unsigned type that
holds the batch's ``[min, max]``.  The executor casts results back (int64
counts, the caller's dtype for sorts), so outputs are byte-identical to an
int64 evaluation while the kernels move a half to an eighth of the bytes
whenever the values allow.

Every semantics also carries the per-balancer **override sweep** used for
:class:`repro.faults.FaultyNetwork` mutants, whose behavior (e.g. a stuck
routing bit) is not expressible in the structural IR the plan compiler
consumes.  Overridden networks never take the flat-plan fast path; the
sweeps here are the single implementation all simulators share.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CountOverflowError",
    "SEMANTICS",
    "Semantics",
    "CountSemantics",
    "SortSemantics",
    "TokenSemantics",
    "get_semantics",
]

#: Execution semantics a :class:`~repro.core.plan.PlanExecutor` can run.
SEMANTICS = ("count", "sort", "token")

_INT64 = np.dtype(np.int64)

#: Count/token evaluation dtypes, narrowest first.  Signed only, so that a
#: kernel may form a difference such as ``rem - j`` without wrapping (the
#: present ones stay non-negative); the one bit of range is cheap.
_COUNT_DTYPES = tuple(
    (np.dtype(t), int(np.iinfo(t).max)) for t in (np.int8, np.int16, np.int32, np.int64)
)

#: Sort evaluation dtypes for integer batches, narrowest first, with the
#: value range each holds.
_SORT_DTYPES = tuple(
    (np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
    for t in (
        np.int8, np.uint8, np.int16, np.uint16,
        np.int32, np.uint32, np.int64, np.uint64,
    )
)


class CountOverflowError(OverflowError):
    """A count/token batch whose token totals int64 cannot hold.

    Raised when some row's input sum plus the widest balancer's rounding
    headroom exceeds ``2**63 - 1``: every wire of that row may carry up to
    the row sum, and int64 arithmetic would silently wrap it."""


class Semantics:
    """One balancer transfer function, vectorized over plan segments.

    Subclasses implement :meth:`segment` — evaluate one ``(layer, width)``
    segment of ``k`` balancers of width ``p`` in place, in whatever
    integer (or caller) dtype the state has — plus :meth:`prepare` (the
    casting and dtype-narrowing policy, fed by the per-executor
    :meth:`limits` table) and :meth:`apply_overridden` (the per-balancer
    fault sweep).  Instances are stateless singletons shared by every
    executor; the only mutable member is the tiny per-``(width, dtype)``
    offset-column cache.

    Kernel gathers use ``ndarray.take(..., mode="clip")``: the default
    ``mode="raise"`` spends a full extra pass bounds-checking the index
    array (~3x the gather cost at plan scale), and every plan index is
    already validated once at lowering/deserialization time
    (:meth:`~repro.core.plan.ExecutionPlan._validate`).  The method, not
    ``np.take``, whose Python wrapper costs three interpreter frames per
    segment and row tile.
    """

    #: Registry name; also stamped into spans, cache keys and stats.
    name = "semantics"

    def __init__(self) -> None:
        # Per-(width, dtype) position column (p, 1, 1), shared across
        # executors; typed so that no kernel upcasts to int64.
        self._offsets: dict[tuple[int, np.dtype], np.ndarray] = {}

    def _offset_col(self, p: int, dtype: np.dtype) -> np.ndarray:
        col = self._offsets.get((p, dtype))
        if col is None:
            col = self._offset_values(p).astype(dtype)[:, None, None]
            self._offsets[(p, dtype)] = col
        return col

    def _offset_values(self, p: int) -> np.ndarray:
        """Port ``j``'s entry of the offset column (``j`` itself)."""
        return np.arange(p)

    def limits(self, width: int, max_p: int) -> tuple:
        """The narrowing table :meth:`prepare` consults, computed once per
        executor for a plan of ``width`` inputs and widest balancer
        ``max_p``."""
        return ()

    def prepare(self, x: np.ndarray, limits: tuple) -> tuple[np.ndarray, np.dtype]:
        """Cast a validated ``(B, w)`` batch to its output dtype and pick
        the dtype it is evaluated in."""
        raise NotImplementedError

    def segment(self, state, scratch, in_flat, p: int, k: int, off: int, ob: int) -> None:
        raise NotImplementedError

    def apply_overridden(self, net, x: np.ndarray, overrides: dict) -> np.ndarray:
        raise NotImplementedError


class _ConservingSemantics(Semantics):
    """Shared dtype policy of the two token-conserving semantics."""

    def limits(self, width: int, max_p: int) -> tuple:
        # A wire holds at most its row's sum T; the kernels' largest
        # intermediate is T + p - 1 (the count kernel's rounding offset).
        return width, max_p, tuple((dt, top - max_p) for dt, top in _COUNT_DTYPES)

    def prepare(self, x: np.ndarray, limits: tuple) -> tuple[np.ndarray, np.dtype]:
        x = np.ascontiguousarray(x, dtype=np.int64)
        # Negative counts are outside every caller's contract (the public
        # evaluators reject them); they keep plain int64 arithmetic.
        if not x.size or int(np.minimum.reduce(x, axis=None)) < 0:
            return x, _INT64
        width, max_p, table = limits
        # Bound the row sums without wrapping first (Python ints), and
        # only sum exactly in arbitrary precision when the bound fails.
        if int(np.maximum.reduce(x, axis=None)) * width <= table[-1][1]:
            total = int(np.maximum.reduce(np.add.reduce(x, axis=1)))
        else:
            total = max(x.sum(axis=1, dtype=object))
        for dtype, limit in table:
            if total <= limit:
                return x, dtype
        raise CountOverflowError(
            f"a row sums to {total} tokens, past the int64 limit of "
            f"{table[-1][1]} for balancers up to {max_p} wide"
        )


class CountSemantics(_ConservingSemantics):
    """Quiescent-count transfer (the original plan kernels)."""

    name = "count"

    def _offset_values(self, p: int) -> np.ndarray:
        # Rounding offsets p - 1 - j: out[j] = (tot + p - 1 - j) // p.
        return np.arange(p - 1, -1, -1)

    def segment(self, state, scratch, in_flat, p: int, k: int, off: int, ob: int) -> None:
        size = p * k
        g = scratch.gather[:size]
        state.take(in_flat[off : off + size], axis=0, out=g, mode="clip")
        if p == 2:
            top = state[ob : ob + k]
            bot = state[ob + k : ob + 2 * k]
            np.add(g[:k], g[k:], out=bot)  # totals
            np.add(bot, 1, out=top)
            np.right_shift(top, 1, out=top)  # ceil(t/2)
            np.right_shift(bot, 1, out=bot)  # floor(t/2)
            return
        vals = g.reshape(p, k, -1)
        tot = scratch.totals[:k]
        np.add.reduce(vals, axis=0, out=tot, dtype=tot.dtype)
        out = state[ob : ob + size].reshape(p, k, -1)
        # out[j] = ceil((tot - j) / p), computed without temporaries.
        np.add(tot[None, :, :], self._offset_col(p, tot.dtype), out=out)
        if p & (p - 1):
            np.floor_divide(out, p, out=out)
        else:
            np.right_shift(out, p.bit_length() - 1, out=out)

    def apply_overridden(self, net, x: np.ndarray, overrides: dict) -> np.ndarray:
        """Per-balancer batched count sweep honoring semantic overrides."""
        # The sweep runs in int64: refuse totals it would wrap.
        max_p = max((b.width for b in net.balancers), default=1)
        self.prepare(x, self.limits(net.width, max_p))
        batch = x.shape[0]
        in_idx, out_idx = net.io_arrays()
        _, in_concat, out_concat, bounds = net.wire_arrays()
        blist = bounds.tolist()
        state = np.zeros((net.num_wires, batch), dtype=np.int64)
        state[in_idx] = x.T
        for b in net.balancers:
            lo, hi = blist[b.index], blist[b.index + 1]
            totals = state[in_concat[lo:hi]].sum(axis=0)
            ov = overrides.get(b.index)
            if ov is not None:
                state[out_concat[lo:hi]] = ov.apply_counts(totals, b.width)
            else:
                j = np.arange(b.width, dtype=np.int64)[:, None]
                state[out_concat[lo:hi]] = (totals[None, :] - j + b.width - 1) // b.width
        return state[out_idx].T


#: Widest comparator evaluated with the branchless compare-exchange
#: network; wider (rare) comparators fall back to ``np.sort``.
_MAX_CE_WIDTH = 8

_ce_pair_cache: dict[int, tuple[tuple[int, int], ...]] = {}


def _ce_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher odd-even mergesort compare-exchange pairs for ``n`` rows.

    Generated for the next power of two with out-of-range pairs dropped —
    valid because virtual high-index elements are max-sentinels that no
    compare-exchange can move (the standard padding argument), and pinned
    by the exhaustive 0-1 check in the semantics test suite.  Optimal for
    ``n <= 8`` (1, 3, 5, 9, 12, 16, 19 comparators).
    """
    cached = _ce_pair_cache.get(n)
    if cached is not None:
        return cached
    m = 1
    while m < n:
        m *= 2
    pairs: list[tuple[int, int]] = []
    p = 1
    while p < m:
        k = p
        while k >= 1:
            for j in range(k % p, m - k, 2 * k):
                for i in range(0, k):
                    if (i + j) // (p * 2) == (i + j + k) // (p * 2) and i + j + k < n:
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    _ce_pair_cache[n] = out = tuple(pairs)
    return out


class SortSemantics(Semantics):
    """Descending compare-exchange over the same segment tables."""

    name = "sort"

    def prepare(self, x: np.ndarray, limits: tuple) -> tuple[np.ndarray, np.dtype]:
        # Comparators are dtype-generic and only move values: integers run
        # in the narrowest type holding [min, max], anything else as given.
        x = np.ascontiguousarray(x)
        if x.dtype.kind not in "iu" or not x.size:
            return x, x.dtype
        lo = int(np.minimum.reduce(x, axis=None))
        hi = int(np.maximum.reduce(x, axis=None))
        for dtype, dlo, dhi in _SORT_DTYPES:
            if dlo <= lo and hi <= dhi:
                return x, dtype
        return x, x.dtype

    def segment(self, state, scratch, in_flat, p: int, k: int, off: int, ob: int) -> None:
        size = p * k
        g = scratch.gather[:size]
        state.take(in_flat[off : off + size], axis=0, out=g, mode="clip")
        if p == 2 and scratch.numeric:
            # Branchless width-2 min/max: largest value on the top wire.
            np.maximum(g[:k], g[k:], out=state[ob : ob + k])
            np.minimum(g[:k], g[k:], out=state[ob + k : ob + 2 * k])
            return
        vals = g.reshape(p, k, -1)
        out = state[ob : ob + size].reshape(p, k, -1)
        if scratch.numeric and p <= _MAX_CE_WIDTH:
            # Branchless Batcher network over the p gathered row planes:
            # each compare-exchange is one np.maximum + one np.minimum, with
            # buffer rotation instead of a copy-back (max lands in the spare
            # buffer, min overwrites one operand in place, the dead operand
            # becomes the next spare).  Orders of magnitude cheaper than
            # np.sort along the strided balancer axis.  Max-first CE pairs
            # on an ascending network yield the descending convention.
            rows = [vals[j] for j in range(p)]
            tmp = scratch.totals[:k]
            for i, j in _ce_pairs(p):
                a, b = rows[i], rows[j]
                np.maximum(a, b, out=tmp)
                np.minimum(a, b, out=a)
                rows[i], rows[j], tmp = tmp, a, b
            for j in range(p):
                out[j][...] = rows[j]
            return
        # Non-numeric dtypes / very wide comparators: sort ascending in
        # place, read out reversed (dtype-safe, unlike negation).
        vals.sort(axis=0)
        out[...] = vals[::-1]

    def apply_overridden(self, net, values: np.ndarray, overrides: dict) -> np.ndarray:
        """Per-balancer batched comparator sweep honoring overrides.

        A stuck comparator does not compare at all: values pass through in
        arrival order (the value-semantics projection of a dead routing
        bit — token-level stuckness has no conservation-respecting
        analogue over distinct values).
        """
        state = np.zeros((net.num_wires, values.shape[0]), dtype=values.dtype)
        state[list(net.inputs)] = values.T
        for b in net.balancers:
            vals = state[list(b.inputs)]  # (p, B)
            if b.index in overrides:
                state[list(b.outputs)] = vals  # broken comparator: no exchange
            else:
                state[list(b.outputs)] = np.sort(vals, axis=0)[::-1]
        return state[list(net.outputs)].T


class TokenSemantics(_ConservingSemantics):
    """Batched mod-``p`` token routing, stepped to quiescence per layer.

    Port ``j`` of a balancer that saw ``T`` arrivals from a fresh state
    received ``T // p`` full round-robin rounds plus one residue token iff
    ``j < T mod p``.  Same numbers as :class:`CountSemantics` — by the
    schedule-independence of quiescent states — via the token-routing
    decomposition instead of the ceiling identity.
    """

    name = "token"

    def segment(self, state, scratch, in_flat, p: int, k: int, off: int, ob: int) -> None:
        size = p * k
        g = scratch.gather[:size]
        state.take(in_flat[off : off + size], axis=0, out=g, mode="clip")
        if p == 2:
            top = state[ob : ob + k]
            bot = state[ob + k : ob + 2 * k]
            np.add(g[:k], g[k:], out=bot)  # totals
            np.bitwise_and(bot, 1, out=top)  # residue: 1 token iff T odd
            np.right_shift(bot, 1, out=bot)  # full rounds
            np.add(top, bot, out=top)  # port 0 = rounds + residue
            return
        vals = g.reshape(p, k, -1)
        tot = scratch.totals[:k]
        np.add.reduce(vals, axis=0, out=tot, dtype=tot.dtype)
        # The gather rows are dead after the totals reduction: reuse row 0
        # as the residue buffer (T mod p) so the kernel allocates nothing.
        rem = g[:k]
        if p & (p - 1):
            np.remainder(tot, p, out=rem)
            np.floor_divide(tot, p, out=tot)  # tot now holds the full rounds
        else:
            np.bitwise_and(tot, p - 1, out=rem)
            np.right_shift(tot, p.bit_length() - 1, out=tot)
        out = state[ob : ob + size].reshape(p, k, -1)
        # out[j] = rounds + (j < rem), the indicator written straight into
        # the output rows (bool -> integer is a safe cast).
        np.greater(rem[None, :, :], self._offset_col(p, rem.dtype), out=out)
        np.add(out, tot[None, :, :], out=out)

    def apply_overridden(self, net, x: np.ndarray, overrides: dict) -> np.ndarray:
        """Token-routing override sweep.

        A stuck balancer routes *every* arriving token to its stuck port
        (:meth:`repro.faults.mutator.StuckOverride.apply_counts`), and a
        pristine balancer drained from a fresh state lands on the
        quiescent counts — exactly the count sweep, shared verbatim.
        """
        return _COUNT.apply_overridden(net, x, overrides)


_COUNT = CountSemantics()
_SORT = SortSemantics()
_TOKEN = TokenSemantics()

_REGISTRY: dict[str, Semantics] = {s.name: s for s in (_COUNT, _SORT, _TOKEN)}


def get_semantics(name: str) -> Semantics:
    """The shared singleton for ``name`` (one of :data:`SEMANTICS`)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown semantics {name!r}; choose from {SEMANTICS}"
        ) from None
