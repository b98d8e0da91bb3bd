"""mLR: the memoized ADMM-FFT reconstruction solver (the paper's system).

:class:`MLRSolver` assembles the full stack — laminography operators, the
memoized executor, and the ADMM driver — behind one call::

    solver = MLRSolver(geometry, MLRConfig(), ADMMConfig(n_outer=60))
    result = solver.reconstruct(projections)

mLR does not change the FFT algorithm or the solver mathematics; it reduces
the *number of FFT operation executions* via memoization (Section 3), so a
run with an impossible threshold (``tau -> 1``) degenerates to the original
ADMM-FFT bit-for-bit — a property the integration tests assert.

For the paper's CNN key encoder, :meth:`train_encoder` performs the
contrastive warmup (Section 4.3.1): it harvests chunk images from a few
unmemoized iterations, trains the encoder on Eq. 2, INT8-quantizes it, and
installs it in the executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lamino.chunking import SlabAssembler
from ..lamino.geometry import LaminoGeometry
from ..lamino.operators import LaminoOperators
from ..obs import runtime as obs
from ..solvers.admm import ADMMConfig, ADMMResult, ADMMSolver
from .config import MLRConfig
from .keying import CNNKeyEncoder, chunk_to_image, state_digest
from .memo_engine import MemoEvent, MemoizedExecutor

__all__ = ["MLRResult", "MLRSolver"]


@dataclass
class MLRResult:
    """Reconstruction + memoization trace."""

    u: np.ndarray
    history: dict[str, list[float]] = field(default_factory=dict)
    events: list[MemoEvent] = field(default_factory=list)
    case_counts: dict[str, int] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)

    @property
    def memoized_fraction(self) -> float:
        """Share of memoizable chunk-ops served without FFT computation."""
        served = self.case_counts.get("db_hit", 0) + self.case_counts.get("cache_hit", 0)
        total = sum(
            n for case, n in self.case_counts.items() if case != "direct"
        ) or 1
        return served / total


class MLRSolver:
    """End-to-end memoized laminography reconstruction."""

    def __init__(
        self,
        geometry: LaminoGeometry,
        config: MLRConfig | None = None,
        admm: ADMMConfig | None = None,
        ops: LaminoOperators | None = None,
        encoder=None,
    ) -> None:
        self.geometry = geometry
        self.config = config or MLRConfig()
        if self.config.obs is not None:
            obs.configure(self.config.obs)
        self.admm_config = admm or ADMMConfig()
        self.ops = ops if ops is not None else LaminoOperators(geometry)
        snapshot_tree = self.config.memo_snapshot
        #: True when the configured warm-start snapshot failed its checksums
        #: and was quarantined (this run started cold instead of crashing)
        self.snapshot_quarantined = False
        if snapshot_tree is not None and not isinstance(snapshot_tree, dict):
            # construction-time warm start from disk: a corrupt snapshot is
            # moved aside and the run starts cold; an explicit
            # load_memo_snapshot() call still raises, since there the
            # caller asked for *that* snapshot
            from ..service.snapshot import load_or_quarantine

            snapshot_tree = load_or_quarantine(snapshot_tree, "solver-init")
            self.snapshot_quarantined = snapshot_tree is None
        if (
            encoder is None
            and self.config.memo.encoder == "cnn"
            and snapshot_tree is not None
            and snapshot_tree.get("encoder_state")
        ):
            # snapshot-aware encoder lifecycle: the snapshot carries the
            # trained CNN encoder its keys were produced with — install it
            # instead of demanding a re-train
            encoder = CNNKeyEncoder.from_state(snapshot_tree["encoder_state"])
        self.executor = MemoizedExecutor(
            self.ops,
            config=self.config.memo,
            chunk_size=self.config.chunk_size,
            encoder=encoder,
            n_workers=self.config.n_workers,
            n_shards=self.config.n_shards,
        )
        #: the same executor under the name the perf ledger reads
        self.memo_executor = self.executor
        if snapshot_tree is not None:
            self.load_memo_snapshot(snapshot_tree)
        self.solver = ADMMSolver(self.ops, self.admm_config, executor=self.executor)

    def close(self) -> None:
        """Release transport resources (the remote memo client, if any)."""
        self.executor.close()

    # -- warm start / persistence --------------------------------------------------------

    def load_memo_snapshot(self, snapshot) -> None:
        """Warm-start the memoization database tier from ``snapshot`` — a
        directory written by :meth:`save_memo_snapshot` or an in-memory
        ``memo_state()`` tree (what ``MLRConfig(memo_snapshot=...)`` routes
        here at construction).

        A snapshot carrying CNN encoder weights (``encoder_state``)
        auto-installs them when this solver is configured for the CNN
        encoder and does not already run the exact same weights — so a
        CNN-keyed deployment warm-starts without a re-train."""
        from ..service.snapshot import load_memo_snapshot

        tree = snapshot if isinstance(snapshot, dict) else load_memo_snapshot(snapshot)
        enc_state = tree.get("encoder_state")
        if enc_state and self.config.memo.encoder == "cnn":
            current = self.executor.encoder
            # digest the raw state tree — building a CNNKeyEncoder (with its
            # INT8 re-quantization) just to compare digests would waste the
            # common case where the snapshot's encoder is already installed
            if not (
                isinstance(current, CNNKeyEncoder)
                and current.weights_digest() == state_digest(enc_state)
            ):
                self.executor.encoder = CNNKeyEncoder.from_state(enc_state)
                self.executor.reset_state()
        self.executor.load_memo_state(tree)

    def save_memo_snapshot(self, path) -> dict:
        """Persist the executor's database tier as a versioned on-disk
        snapshot; returns its header fields."""
        from ..service.snapshot import save_memo_snapshot

        return save_memo_snapshot(path, self.executor)

    # -- optional CNN warmup -----------------------------------------------------------

    def train_encoder(
        self,
        d: np.ndarray,
        harvest_iterations: int = 2,
        n_epochs: int = 6,
        embed_dim: int | None = None,
        input_hw: int = 16,
        seed: int = 0,
    ) -> CNNKeyEncoder:
        """Contrastively train the paper's CNN encoder on harvested chunks.

        Runs ``harvest_iterations`` of unmemoized ADMM to collect real chunk
        images, trains :class:`~repro.nn.ChunkEncoder` with the Eq. 2 loss,
        quantizes to INT8 and installs it as the executor's key encoder.
        """
        from ..nn.cnn import ChunkEncoder
        from ..nn.contrastive import train_contrastive
        from ..solvers.executor import DirectExecutor

        harvest: list[np.ndarray] = []
        size = self.config.chunk_size

        class _Harvester(DirectExecutor):
            def _run_fu2d(self, chunk, u1_c, sub):
                harvest.append(chunk_to_image(u1_c[:, :, :].transpose(1, 0, 2), input_hw))
                return super()._run_fu2d(chunk, u1_c, sub)

        ex = _Harvester(self.ops, chunk_size=size)
        cfg = ADMMConfig(
            alpha=self.admm_config.alpha,
            rho=self.admm_config.rho,
            n_outer=harvest_iterations,
            n_inner=self.admm_config.n_inner,
        )
        ADMMSolver(self.ops, cfg, executor=ex).run(d)
        images = np.stack(harvest).astype(np.complex64)
        encoder = ChunkEncoder(
            input_hw=input_hw,
            embed_dim=embed_dim or self.config.memo.embed_dim,
            seed=seed,
        )
        train_contrastive(encoder, images, n_epochs=n_epochs, seed=seed)
        key_encoder = CNNKeyEncoder(encoder, quantized=True)
        self.executor.encoder = key_encoder
        # rebuild per-op databases for the new key dimensionality
        self.executor.reset_state()
        return key_encoder

    # -- reconstruction -----------------------------------------------------------------

    def _result(self, admm_result: ADMMResult) -> MLRResult:
        """The run's :class:`MLRResult`, after registering the
        authoritative end-of-run values into the observability registry —
        :class:`MemoDBStats` per memoized op and merged (``memo_db_*``), and
        a remote tier's transport counters (``net_client_*``) — so a
        ``repro.obs`` dump reconciles *exactly* with the tier's own
        counters."""
        if obs.enabled():
            from .memo_db import MemoDBStats

            per_op = {op: self.executor.db_stats(op) for op in self.config.memo.memo_ops}
            per_op["all"] = MemoDBStats.merged(per_op.values())
            for op, stats in per_op.items():
                obs.publish_gauges("memo_db", stats, op=op)
                obs.gauge("memo_db_hit_rate", op=op).set(stats.hit_rate)
            net_stats = self.executor.router.net_stats
            if net_stats is not None:
                obs.publish_gauges("net_client", net_stats)
        return MLRResult(
            u=admm_result.u,
            history=admm_result.history,
            events=list(self.executor.events),
            case_counts=self.executor.case_counts(),
            op_counts=admm_result.op_counts,
        )

    def reconstruct(
        self, d: np.ndarray, u0: np.ndarray | None = None, callback=None
    ) -> MLRResult:
        """Run the memoized reconstruction.  ``callback(it, u, info)`` is
        invoked after every outer iteration (the reconstruction service uses
        it for per-job progress events and cooperative cancellation)."""
        with obs.span("solver.reconstruct"):
            admm_result: ADMMResult = self.solver.run(d, u0=u0, callback=callback)
        return self._result(admm_result)

    # -- streaming ingest ---------------------------------------------------------------

    def make_ingest(self, queue_depth: int = 4):
        """A :class:`~repro.pipeline.StreamingIngest` matched to this
        solver's geometry and chunk grid; ``queue_depth`` blocks of
        backpressure toward the producer."""
        from ..pipeline import StreamingIngest

        return StreamingIngest(
            self.geometry.data_shape,
            chunk_size=self.config.chunk_size,
            queue_depth=queue_depth,
        )

    def reconstruct_streaming(self, ingest, u0: np.ndarray | None = None) -> MLRResult:
        """Reconstruct from an incrementally arriving scan.

        ``ingest`` is a :class:`~repro.pipeline.StreamingIngest` (see
        :meth:`make_ingest`) being fed by an acquisition thread.  The
        ``F2D`` preprocessing sweep (``dhat = F2D d``, Algorithm 2 line 2)
        is driven directly off the stream — early angle chunks are
        transformed while later ones are still arriving — and the ADMM
        iterations start as soon as the scan completes.  The result is
        bit-identical to :meth:`reconstruct` on the fully assembled data.

        An ingest declared for another scan shape is refused (``ValueError``)
        before anything is consumed, and torn down so its producer sees
        ``QueueClosed``.
        """
        if tuple(ingest.data_shape) != self.geometry.data_shape:
            ingest.abort()
            raise ValueError(
                f"ingest declares a {tuple(ingest.data_shape)} scan, the geometry "
                f"needs {self.geometry.data_shape}"
            )
        d = np.empty(self.geometry.data_shape, dtype=ingest.dtype)

        def assemble(items):
            for chunk, slab in items:
                d[chunk.slice] = slab
                yield chunk, slab

        try:
            dhat = None
            if self.admm_config.cancellation:
                sink = SlabAssembler(len(d))
                sweep = self.executor.sweep_stream(
                    "F2D", assemble(iter(ingest)), ingest.n_chunks
                )
                for chunk, dhat_c in sweep:
                    sink(chunk, dhat_c)
                dhat = sink.result()
            else:
                for _ in assemble(iter(ingest)):
                    pass
            with obs.span("solver.reconstruct"):
                admm_result: ADMMResult = self.solver.run(d, u0=u0, dhat=dhat)
        except BaseException:
            # tear the stream down so a producer blocked in push() sees
            # QueueClosed instead of deadlocking on a vanished consumer
            ingest.abort()
            raise
        return self._result(admm_result)
