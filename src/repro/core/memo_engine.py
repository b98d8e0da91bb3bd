"""The memoization engine: a drop-in executor that replaces FFT operations.

:class:`MemoizedExecutor` subclasses the chunked
:class:`~repro.solvers.executor.DirectExecutor` and intercepts the four
cancelled-pipeline operations (``Fu1D``, ``Fu2D``, ``Fu2D*``, ``Fu1D*``)
at the sweep seam, ``_sweep``; it memoizes those ``MemoConfig.memo_ops``
names (``Fu2D*`` alone by default) and runs the others direct.  It
reproduces the paper's scalable deployment
(Sections 4.3, 4.4 and 5.2, Figures 6 and 14) functionally:

- chunk locations are assigned to ``n_workers`` simulated GPU workers with
  :func:`repro.core.scaling.distribute_chunks` (contiguous blocks, the
  rechunking-friendly layout the scalability figures assume),
- each worker owns a **private memoization cache** (Section 4.4) and a
  :class:`~repro.core.coalescer.KeyCoalescer` (Section 4.3.3); keys that
  miss the cache are buffered and leave the worker as coalesced messages,
- every emitted message goes to ``self.router`` — the **memoization
  database** tier on the memory node (Section 4.3.2): a
  :class:`~repro.core.memo_shard.MemoShardRouter` in process, or a
  :class:`~repro.net.client.RemoteMemoClient` of one daemon over TCP —
  and is serviced through the batched ``query_batch`` / ``insert_batch``
  API,
- misses are computed and their insertions dispatched as one batched
  message per sweep (insertion is asynchronous in the paper — nothing in
  the sweep depends on it).

Each op sweep runs in two phases per worker block: (A) encode keys, resolve
cache hits, and send the remainder through the coalescer to the shards;
(B) in chunk order, serve hits (affine scale-corrected reuse) and compute
misses.  Because memoization reuse is scoped to a single chunk location
(Section 4.1) and a location is owned by exactly one worker and one shard,
deferring queries to message boundaries changes no outcome: the fleet shape
``n_workers x n_shards`` is pure routing, and ``1 x 1`` — one GPU with the
database next to it — is just its smallest configuration.  (The one caveat
is ``cache="global"``, see :class:`~repro.core.config.MemoConfig`.)

Every decision is appended to ``events`` — tagged with its ``worker`` and
``shard`` — the trace the trace-driven performance simulation
(:mod:`repro.core.perfsim`) replays at paper scale with the exact locality
of the numeric run, and the raw material for Figures 4, 10 and 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lamino.chunking import Chunk, SlabAssembler
from ..obs import runtime as obs
from ..solvers.executor import SWEEP_AXIS, SWEEP_KERNELS, DirectExecutor, operand_shape
from .coalescer import CoalesceStats, KeyCoalescer
from .config import MemoConfig
from .keying import CNNKeyEncoder, PoolKeyEncoder, check_fingerprint
from .memo_cache import CacheStats, GlobalMemoCache, PrivateMemoCache
from .memo_db import MemoDatabase, MemoDBStats
from .memo_shard import MemoShardRouter, ShardInsert, ShardQuery, memo_state_partitions
from .scaling import GPUAssignment, distribute_chunks

__all__ = [
    "MemoEvent",
    "MemoizedExecutor",
    "WorkerState",
    "make_db_factory",
    "memo_state_partitions",
    "CASE_MISS",
    "CASE_DB",
    "CASE_CACHE",
    "CASE_DIRECT",
]


def make_db_factory(config: MemoConfig):
    """Partition factory (``dim -> MemoDatabase``) carrying ``config``'s
    tau / index settings — shared by the executor and the memo server
    daemon so every deployment shape builds identical partitions."""

    def make_db(dim: int) -> MemoDatabase:
        return MemoDatabase(
            dim=dim,
            tau=config.tau,
            index_clusters=config.index_clusters,
            index_nprobe=config.index_nprobe,
            train_min=config.index_train_min,
        )

    return make_db


#: event case labels (Figure 10's "Fail Memo" / "Suc Memo" / "Memo w/Caching")
CASE_MISS = "miss"  # no match: original computation + insertion
CASE_DB = "db_hit"  # value retrieved from the remote memoization database
CASE_CACHE = "cache_hit"  # value served by the local memoization cache
CASE_DIRECT = "direct"  # memoization bypassed (warmup / non-memoized op)


@dataclass(frozen=True)
class MemoEvent:
    """One chunk-level memoization decision.

    ``worker`` is the simulated GPU worker that executed the chunk and
    ``shard`` the database shard that owns the chunk location.
    """

    outer: int
    inner: int
    op: str
    chunk: int
    case: str
    similarity: float
    key_bytes: int
    value_bytes: int
    worker: int = 0
    shard: int = 0


@dataclass
class _OpState:
    """Per-operation, per-chunk-location bookkeeping of the engine.

    Reuse is scoped to a *chunk location* (paper Section 4.1: results are
    stored "for a chunk location to be reused in future iterations"); the
    database partitions themselves live behind ``executor.router``.
    """

    key_history: dict = field(default_factory=dict)  # location -> [keys]
    consecutive_serves: dict = field(default_factory=dict)  # location -> int


@dataclass
class WorkerState:
    """One simulated GPU worker: its private cache per op and its coalescer."""

    worker_id: int
    coalescer: KeyCoalescer
    caches: dict = field(default_factory=dict)  # op -> cache | None
    #: queries buffered behind the coalescer, awaiting the next message
    pending: list = field(default_factory=list)  # [(_Slot, ShardQuery)]


class _Slot:
    """Resolution record of one chunk within a sweep (phase A -> phase B)."""

    __slots__ = ("case", "key", "meta", "hit", "outcome", "serves")

    def __init__(self) -> None:
        self.case = None
        self.key = None
        self.meta = None
        self.hit = None  # CacheHit on a cache hit
        self.outcome = None  # QueryOutcome once the shard answered
        self.serves = 0


class MemoizedExecutor(DirectExecutor):
    """Chunk executor with the full mLR memoization stack: ``n_workers``
    simulated GPU workers against an ``n_shards`` database tier.

    The tier is ``self.router``, a
    :class:`~repro.core.memo_shard.MemoTier`; the executor uses exactly
    ``query_batch``, ``insert_batch``, ``shard_of``, ``stats``,
    ``entries``, ``state_dict``, ``push_state`` and ``close`` of it.
    Per-shard breakdowns are the tier's own
    (``executor.router.shard_stats()``).
    """

    def __init__(
        self,
        ops,
        config: MemoConfig | None = None,
        chunk_size: int | None = None,
        encoder=None,
        n_workers: int = 1,
        n_shards: int = 1,
    ) -> None:
        if n_workers < 1 or n_shards < 1:
            raise ValueError("n_workers and n_shards must be >= 1")
        super().__init__(ops, chunk_size=chunk_size)
        self.config = config or MemoConfig()
        if encoder is not None:
            self.encoder = encoder
        elif self.config.encoder == "pool":
            self.encoder = PoolKeyEncoder()
        else:
            raise ValueError(
                "encoder='cnn' requires passing a trained CNNKeyEncoder instance"
            )
        self.n_workers = n_workers
        self.n_shards = n_shards
        self.router = None
        self.events: list[MemoEvent] = []
        self.enabled = True
        self.reset_state()

    def op_grid(self, op: str) -> list[Chunk]:
        """Chunk grid of one operation's sweep — the chunks ``_sweep`` walks
        over the op's operand, one per memoization location.  ``Fu1D`` /
        ``Fu1D*`` sweep the volume x-axis, ``Fu2D`` / ``Fu2D*`` the detector
        row-frequency axis; the grids differ whenever the volume height is
        not the detector height, so everything sized from them (global-cache
        capacity and chunk extents) is sized per op."""
        return self._grid(op, operand_shape(op, self.ops.geometry)[SWEEP_AXIS[op]])

    def reset_state(self) -> None:
        """Drop all memoization state (database tier connection, caches,
        histories) — e.g. after installing a new key encoder with a
        different dimensionality."""
        cfg = self.config
        self._state: dict[str, _OpState] = {op: _OpState() for op in cfg.memo_ops}
        old_router = self.router
        self.router = self._make_router()
        if old_router is not None:
            old_router.close()
        self.workers = [
            WorkerState(
                worker_id=w,
                coalescer=KeyCoalescer(),
                caches={op: self._make_worker_cache(op) for op in cfg.memo_ops},
            )
            for w in range(self.n_workers)
        ]
        self._assignments: dict[tuple[str, int], GPUAssignment] = {}

    def _make_router(self):
        cfg = self.config
        if cfg.transport != "tcp":
            return MemoShardRouter(self.n_shards, make_db_factory(cfg), tau=cfg.tau)
        # the shard service lives in a MemoServerDaemon (possibly on
        # another host)
        from ..net import RemoteMemoClient

        return RemoteMemoClient(
            cfg.server_address,
            fail_open=True,
            expect_tau=cfg.tau,
            encoder_fingerprint=self._encoder_fingerprint(),
            n_shards_hint=self.n_shards,
        )

    def _make_worker_cache(self, op: str):
        cfg = self.config
        if cfg.cache == "private":
            return PrivateMemoCache(cfg.tau)
        if cfg.cache == "global":
            # per-worker capacity matches the worker's location share so the
            # fleet's total cache memory equals the single-worker baseline
            grid = self.op_grid(op)
            share = -(-len(grid) // self.n_workers)
            return GlobalMemoCache(
                cfg.tau, capacity=max(1, share), extents=[c.size for c in grid]
            )
        return None

    def close(self) -> None:
        """Release the tier's transport (no-op for the in-process router)."""
        self.router.close()

    # -- worker / shard plumbing ---------------------------------------------------------

    def assignment_for(self, op: str, n_chunks: int) -> GPUAssignment:
        key = (op, n_chunks)
        assign = self._assignments.get(key)
        if assign is None:
            assign = distribute_chunks(n_chunks, self.n_workers)
            self._assignments[key] = assign
        return assign

    def _flush(self, worker: WorkerState) -> None:
        """Force-emit (and dispatch) the worker's buffered key message.

        Called at the end of every worker block and on ``begin_inner``: a
        sweep's tail batch must not leak into the next sweep's message
        accounting (Figure 11's ``messages`` / ``mean_batch`` inputs), and
        no key may stay pending across an inner iteration.
        """
        if worker.coalescer.flush() is not None:
            self._dispatch_queries(worker)

    def begin_inner(self, iteration: int) -> None:
        for worker in self.workers:
            self._flush(worker)
        super().begin_inner(iteration)

    def _dispatch_queries(self, worker: WorkerState) -> None:
        """Send the worker's buffered message: route it shard-wise and store
        each outcome on its slot."""
        if not worker.pending:
            return
        queries = [q for _slot, q in worker.pending]
        with obs.span("memo.dispatch", worker=worker.worker_id, n=len(queries)):
            outcomes = self.router.query_batch(queries)
        for (slot, _q), outcome in zip(worker.pending, outcomes):
            slot.outcome = outcome
        worker.pending = []

    # -- the memoization workflow -------------------------------------------------------

    @staticmethod
    def _chunk_meta(input_chunk: np.ndarray) -> tuple[float, complex]:
        """(AC norm, DC mean) of a chunk — the affine-reuse metadata."""
        dc = complex(input_chunk.mean())
        total_sq = float(np.vdot(input_chunk, input_chunk).real)
        ac_sq = max(total_sq - input_chunk.size * abs(dc) ** 2, 0.0)
        return float(np.sqrt(ac_sq)), dc

    def _raw_kernel(self, op: str):
        """The unmemoized ``(chunk, input) -> output`` computation of one
        sweep-scheduled op: the inherited single-chunk kernel from the
        shared ``SWEEP_KERNELS`` table.  Memoize the *linear* transform
        only: the fused ``Fu2D`` kernel's output is affine (it subtracts
        the constant dhat slab), which would break scale-corrected reuse.
        The subtraction is re-applied outside the memoized region; the
        performance model still accounts for fusion."""
        kernel = getattr(self, SWEEP_KERNELS[op])
        if op == "Fu2D":
            return lambda chunk, x: kernel(chunk, x, None)
        return kernel

    def _basis(self, op: str, chunk, shape: tuple[int, ...]) -> np.ndarray:
        """``op`` applied to the all-ones chunk at this location: the exact
        image of the DC component.  Geometry-only, so it lives in the
        operator state beside the plans (``ops.once``) — computed by the
        first executor of any equal stack that needs it, read by every later
        one, a later scheduler job's included — keyed by the chunk's
        *range*, not its index: executors on different chunk grids share
        the state.  Read-only: every holder sees the same array."""

        def compute() -> np.ndarray:
            basis = self._raw_kernel(op)(chunk, np.ones(shape, dtype=np.complex64))
            basis.setflags(write=False)
            return basis

        return self.ops.once(("dc_basis", op, chunk.lo, chunk.hi, shape), compute)

    def _sweep(self, op, array, payload=None):
        """The multi-worker sweep of a sweep-scheduled op over ``array``'s
        chunk grid.

        Per worker, phase A (encode, cache probe, coalesced shard queries)
        runs over the worker's contiguous chunk block, then phase B (serve
        hits, compute misses) for that block.  Chunk locations are
        worker-disjoint and insertions are deferred to the end of the whole
        sweep, so worker-by-worker is bit-identical to running all of phase
        A before all of phase B.  The full-array ops are inherited calls to
        this seam.
        """
        if op not in SWEEP_KERNELS:
            # detector-plane ops are never sweep-scheduled: run them
            # chunk-at-a-time like the base executor
            return super()._sweep(op, array, payload)
        try:
            return self._memo_sweep(op, array, payload)
        except BaseException:
            # a dead sweep (a failing encoder, kernel or tier call) must not
            # leak its buffered queries or coalesced keys into the next
            # sweep's messages and statistics
            for worker in self.workers:
                worker.pending = []
                worker.coalescer.discard()
            raise

    def _memo_sweep(self, op, array, payload):
        cfg = self.config
        memoized_op = self.enabled and op in self._state
        in_warmup = self.outer_iteration < cfg.warmup_iterations
        axis = SWEEP_AXIS[op]
        n = array.shape[axis]
        grid = self._grid(op, n)
        assign = self.assignment_for(op, len(grid))
        state = self._state.get(op)
        compute = self._raw_kernel(op)
        inserts: list[ShardInsert] = []
        sink = SlabAssembler(n, axis)

        for worker_id, owned in enumerate(assign.per_gpu):
            worker = self.workers[worker_id]
            cache = worker.caches.get(op)
            block: list = []  # (chunk, input, subtract | None, slot)

            # -- phase A: cache probe + coalesced shard queries for this block ------
            for ci in owned:
                chunk = grid[ci]
                item = chunk.take(array) if payload is None else payload(chunk)
                self.op_counts[op] += 1
                x, sub = item if op == "Fu2D" else (item, None)
                slot = _Slot()
                block.append((chunk, x, sub, slot))
                if not memoized_op or in_warmup:
                    continue
                slot.meta = self._chunk_meta(x)
                slot.key = self.encoder.encode(x)
                self._remember_key(op, chunk.index, slot.key)
                # Bounded staleness: force a periodic recompute so one stored
                # value cannot serve a location's gradient indefinitely (see
                # MemoConfig).
                slot.serves = state.consecutive_serves.get(chunk.index, 0)
                if slot.serves >= cfg.max_consecutive_reuse:
                    slot.case = CASE_MISS
                    continue
                if cache is not None:
                    hit = cache.lookup(chunk.index, slot.key, self.outer_iteration)
                    if hit is not None:
                        slot.case = CASE_CACHE
                        slot.hit = hit
                        continue
                # miss locally: the key joins the worker's next message
                worker.pending.append(
                    (slot, ShardQuery(op=op, location=chunk.index, key=slot.key))
                )
                if worker.coalescer.offer((op, chunk.index)) is not None:
                    self._dispatch_queries(worker)
            self._flush(worker)  # end of the worker's block: the tail message

            # -- phase B: serve hits, compute misses, batch insertions --------------
            for chunk, x, sub, slot in block:
                loc = chunk.index
                tags = dict(worker=worker_id, shard=self.router.shard_of(loc))
                # the span closes before the assembler takes the slab: its
                # time must not bill to the kernel
                with obs.span(f"sweep.{op}", chunk=loc, worker=worker_id):
                    if not memoized_op or in_warmup:
                        out = compute(chunk, x)
                        if memoized_op:
                            # warmup still populates the database so later iterations hit
                            out.setflags(write=False)  # the tier and the consumer share it
                            key = self.encoder.encode(x)
                            inserts.append(
                                ShardInsert(op, loc, key, out, self._chunk_meta(x))
                            )
                            self._remember_key(op, loc, key)
                        self._record(op, loc, CASE_DIRECT, -2.0, 0, 0, **tags)
                    elif slot.case == CASE_CACHE:
                        state.consecutive_serves[loc] = slot.serves + 1
                        out = self._reconstruct(
                            op, chunk, x, slot.hit.value, slot.hit.meta, slot.meta
                        )
                        self._record(op, loc, CASE_CACHE, 1.0, slot.key.nbytes,
                                     out.nbytes, **tags)
                    elif slot.outcome is not None and slot.outcome.hit:
                        # database hit: backfill the local cache with the raw
                        # stored value
                        hit = slot.outcome
                        state.consecutive_serves[loc] = slot.serves + 1
                        out = self._reconstruct(
                            op, chunk, x, hit.value, hit.stored_meta, slot.meta
                        )
                        if cache is not None:
                            cache.insert(loc, slot.key, hit.value, meta=hit.stored_meta)
                        self._record(op, loc, CASE_DB, hit.similarity, slot.key.nbytes,
                                     out.nbytes, **tags)
                    else:
                        # miss (or forced refresh): original computation,
                        # batched insertion, local-cache refresh
                        out = compute(chunk, x)
                        # one array goes to the cache, the tier and the
                        # consumer: frozen, so a consumer writing into its
                        # chunk cannot change what the other two serve
                        out.setflags(write=False)
                        state.consecutive_serves[loc] = 0
                        inserts.append(ShardInsert(op, loc, slot.key, out, slot.meta))
                        if cache is not None:
                            cache.insert(loc, slot.key, out, meta=slot.meta)
                        sim = slot.outcome.similarity if slot.outcome is not None else -2.0
                        self._record(op, loc, CASE_MISS, sim, slot.key.nbytes,
                                     out.nbytes, **tags)
                sink(chunk, out if sub is None else out - sub)

        if inserts:
            self.router.insert_batch(inserts)
        return sink.result()

    def _reconstruct(
        self,
        op: str,
        chunk,
        input_chunk: np.ndarray,
        value: np.ndarray,
        stored_meta,
        query_meta,
    ) -> np.ndarray:
        """Affine scale-corrected reuse.

        The FFT operations are linear, so with ``B = op(ones)`` and a stored
        pair ``(a, V = op(a))`` the served estimate for a tau-similar query
        ``q`` is::

            op(q) ~= (||q_ac|| / ||a_ac||) * (V - dc_a * B)  +  dc_q * B

        The DC (mean) component — which dominates these operands and whose
        mismatch is what makes naive value reuse blow up — is handled
        *exactly*; only the AC residual is approximated, with error bounded
        by the Eq. 3 gate.
        """
        if stored_meta is None:
            return value.copy()
        ac_a, dc_a = stored_meta
        ac_q, dc_q = query_meta
        basis = self._basis(op, chunk, input_chunk.shape)
        scale = ac_q / ac_a if ac_a > 0 else 0.0
        out = (value - np.complex64(dc_a) * basis) * np.float32(scale)
        out += np.complex64(dc_q) * basis
        return out.astype(value.dtype, copy=False)

    def _remember_key(self, op: str, location: int, key: np.ndarray) -> None:
        if self.config.track_similarity_census:
            self._state[op].key_history.setdefault(location, []).append(key.copy())

    def _record(self, op, chunk_idx, case, sim, kb, vb, worker, shard) -> None:
        # single funnel for every chunk-op resolution: the live per-op
        # hit/miss breakdown mirrors case_counts() exactly
        obs.counter("memo_chunks_total", op=op, case=case).inc()
        self.events.append(
            MemoEvent(
                outer=self.outer_iteration,
                inner=self.inner_iteration,
                op=op,
                chunk=chunk_idx,
                case=case,
                similarity=sim,
                key_bytes=kb,
                value_bytes=vb,
                worker=worker,
                shard=shard,
            )
        )

    # -- statistics ---------------------------------------------------------------------

    def case_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.case] = out.get(ev.case, 0) + 1
        return out

    def cache_stats(self, op: str):
        """Cache statistics aggregated across all workers (``None`` when
        the configuration runs without a local cache)."""
        agg = CacheStats()
        for worker in self.workers:
            cache = worker.caches.get(op)
            if cache is None:
                return None
            agg.merge(cache.stats)
        return agg

    def coalesce_stats(self) -> CoalesceStats:
        """Fleet-wide key-message statistics (Figure 11), aggregated over
        all workers."""
        agg = CoalesceStats()
        for stats in self.per_worker_coalesce_stats():
            agg.merge(stats)
        return agg

    def per_worker_coalesce_stats(self) -> list[CoalesceStats]:
        """Figure 11 companion: each worker's key-message statistics."""
        return [worker.coalescer.stats for worker in self.workers]

    def db_stats(self, op: str):
        """Database statistics of one op, aggregated over the whole tier."""
        return self.router.stats(op)

    def db_stats_total(self):
        """One merged :class:`~repro.core.memo_db.MemoDBStats` over every
        memoized op — the figure job/service reporting quotes."""
        return MemoDBStats.merged(self.db_stats(op) for op in self._state)

    def db_entries(self, op: str) -> int:
        return self.router.entries(op)

    def db_entries_total(self) -> int:
        return sum(self.db_entries(op) for op in self._state)

    # -- snapshot hooks ------------------------------------------------------------------

    def _encoder_fingerprint(self) -> dict:
        """Key-encoder provenance recorded with every memo snapshot: keys
        from different encoders never tau-match, so loading across encoder
        kinds — or across CNN weights (the ``weights`` digest) — must fail
        fast instead of silently degrading hit rates."""
        return {
            "kind": type(self.encoder).__name__,
            "dim": int(getattr(self.encoder, "dim", 0)) or None,
            "weights": (
                self.encoder.weights_digest()
                if isinstance(self.encoder, CNNKeyEncoder)
                else None
            ),
        }

    def _encoder_state(self) -> dict | None:
        """Restorable weights of a trained (CNN) key encoder, carried inside
        every memo snapshot so a warm start re-installs the encoder the keys
        were produced with — no re-train (the pool encoder is stateless:
        ``None``)."""
        if isinstance(self.encoder, CNNKeyEncoder):
            return self.encoder.state_dict()
        return None

    def memo_state(self) -> dict:
        """The database tier as one restorable state tree, snapshotted
        through the router (a flat list of ``(op, location)`` partitions; a
        remote router pulls the server's tier), plus the key-encoder
        fingerprint the keys were produced with and — for trained CNN
        encoders — the encoder weights themselves."""
        state = self.router.state_dict()
        state["encoder"] = self._encoder_fingerprint()
        state["encoder_state"] = self._encoder_state()
        return state

    def load_memo_state(self, state: dict) -> None:
        """Warm-start this executor's tier from a snapshot.

        Fails fast on a snapshot that would silently change memoization
        semantics under this executor's configuration: keys from another
        encoder and ops not memoized here are refused before anything
        moves, partitions gated by another tau by the tier itself (its
        push is all or nothing).  The partitions are handed to the tier
        verbatim: a tree taken at any shard count loads — partitions
        re-route by chunk location — and on a remote transport they travel
        as one snapshot message instead of being rebuilt locally (ANN index
        included) only to be re-serialized for the wire.  The executor's
        encoder state rides along so a later pull from a daemon can still
        warm-start a CNN deployment.
        """
        check_fingerprint(self._encoder_fingerprint(), state.get("encoder"), "snapshot")
        for part in memo_state_partitions(state):
            if str(part["op"]) not in self._state:
                raise ValueError(
                    f"snapshot carries op {part['op']!r}, not memoized here "
                    f"(memo_ops={self.config.memo_ops})"
                )
        self.router.push_state(
            {
                **state,
                "encoder": self._encoder_fingerprint(),
                "encoder_state": self._encoder_state(),
            }
        )

    def similarity_census(self, op: str, tau: float | None = None) -> dict[int, list[int]]:
        """Figure 4: per location, for each iteration's key, how many *prior*
        keys at the same location are tau-similar.

        One normalized-matrix product per location replaces the O(n^2)
        pairwise :func:`cosine_similarity` loop — same counts, orders of
        magnitude faster on long runs.
        """
        tau = tau if tau is not None else self.config.tau
        block = 512  # bounds transient memory at block x history, not history^2
        out: dict[int, list[int]] = {}
        for location, keys in self._state[op].key_history.items():
            if not keys:
                out[location] = []
                continue
            mat = np.stack([np.asarray(k).ravel() for k in keys])
            norms = np.linalg.norm(mat, axis=1)
            # zero keys have similarity 0 to everything (cosine_similarity's
            # convention), which a zeroed row reproduces exactly
            unit = mat / np.where(norms == 0.0, 1.0, norms)[:, None]
            counts: list[int] = []
            for i0 in range(0, len(keys), block):
                i1 = min(i0 + block, len(keys))
                sims = (np.conj(unit[i0:i1]) @ unit[:i1].T).real
                counts.extend(
                    int(np.count_nonzero(sims[r, : i0 + r] > tau))
                    for r in range(i1 - i0)
                )
            out[location] = counts
        return out
