"""Configuration for the mLR memoized solver."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..obs.config import ObsConfig

__all__ = ["MemoConfig", "MLRConfig", "ObsConfig"]


@dataclass
class MemoConfig:
    """Memoization-engine knobs (paper Sections 3--4).

    tau:
        Cosine-similarity acceptance threshold (default 0.92, the paper's
        evaluation default; Section 4.5 discusses 0.9 for PCB-class features
        vs 0.95 for fine biological structure).
    encoder:
        ``"pool"`` — deterministic downsample-to-key encoder (fast, default
        for large sweeps); ``"cnn"`` — the paper's contrastively trained
        3-layer CNN (pass a trained :class:`~repro.nn.ChunkEncoder` or let
        the solver train one during warmup).
    cache:
        ``"private"`` (paper default: one single-entry FIFO cache per chunk
        location), ``"global"`` (the baseline it is compared against), or
        ``None`` (no local cache — every lookup goes to the memo database).
        Each worker owns its cache and probes it for its whole chunk block
        before serving the block, so an entry inserted while serving becomes
        visible at the next worker-block boundary.  Private caches are
        scoped to a location and cannot tell; a shared ``"global"`` cache
        can — a same-sweep cross-location hit is deferred to the next block
        (or sweep), which is the one place the fleet shape is not pure
        routing.
    transport / server_address / replication:
        Where the memoization database tier lives.  ``"inproc"`` (default)
        keeps the shard router in this process; ``"tcp"`` routes all
        query/insert traffic to :class:`~repro.net.server.MemoServerDaemon`
        daemons at ``server_address`` — a single ``"host:port"`` (or
        ``(host, port)`` pair), a comma-separated ``"h1:p1,h2:p2"`` string,
        or a list of either — so multiple hosts share one memo tier.  More
        than one address (or ``replication=N`` over a longer list) wraps
        one client per daemon in the replication tier
        (:func:`repro.net.connect_tier`): inserts fan out to every live
        replica, queries fail over per shard, and a killed replica degrades
        throughput, not results.  The remote client is fail-open: an
        unreachable tier degrades to cold compute, never a failed
        reconstruction.  Loopback ``tcp`` is bit-identical to ``inproc`` at
        every workers x shards layout, replicated or not.
    heartbeat_interval_s:
        Replicated-client background health loop period (ping + circuit
        probes + anti-entropy resync of rejoined replicas).  ``None``
        (default) disables the loop — deterministic runs resync only at
        explicit points.
    """

    tau: float = 0.92
    encoder: str = "pool"
    key_hw: int = 8
    embed_dim: int = 60
    cache: str | None = "private"
    index_clusters: int = 16
    index_nprobe: int = 4
    index_train_min: int = 32
    transport: str = "inproc"
    server_address: str | tuple | list | None = None
    replication: int | None = None
    heartbeat_interval_s: float | None = None
    memo_ops: tuple[str, ...] = ("Fu1D", "Fu2D", "Fu2D*", "Fu1D*")
    track_similarity_census: bool = False
    warmup_iterations: int = 1
    #: The FFT operations are linear, and cosine similarity (the paper's
    #: Eq. 3 gate) is scale-blind while residual magnitudes shrink across
    #: ADMM iterations.  Scale-corrected reuse multiplies a retrieved value
    #: by ||query chunk|| / ||stored chunk||, which keeps reuse sound as the
    #: solver converges; disable to study the raw-reuse failure mode.
    scale_correction: bool = True
    #: Bounded staleness: a chunk location serves at most this many
    #: consecutive memoized results before the engine forces a recompute
    #: (which refreshes the database and cache).  The paper's beamline-scale
    #: runs self-limit — 53% of lookups still miss at tau=0.92 (Sec. 6.4) —
    #: but small smooth synthetic problems converge so cleanly that the
    #: similarity gate alone never rejects, chaining one stale value forever
    #: and biasing the gradient.  The refresh bound restores the paper's
    #: intermittent-reuse regime; set to a huge value to disable.
    max_consecutive_reuse: int = 4

    def __post_init__(self) -> None:
        if not (0.0 < self.tau <= 1.0):
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.encoder not in ("pool", "cnn"):
            raise ValueError(f"encoder must be 'pool' or 'cnn', got {self.encoder!r}")
        if self.cache not in ("private", "global", None):
            raise ValueError(
                f"cache must be 'private', 'global' or None, got {self.cache!r}"
            )
        if self.key_hw < 2:
            raise ValueError(f"key_hw must be >= 2, got {self.key_hw}")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
        if self.transport not in ("inproc", "tcp"):
            raise ValueError(
                f"transport must be 'inproc' or 'tcp', got {self.transport!r}"
            )
        if self.transport == "tcp" and self.server_address is None:
            raise ValueError("transport='tcp' requires a server_address")
        if self.server_address is not None:
            # fail fast on malformed addresses at config time, naming the
            # bad element, instead of deep inside client construction
            from ..net.wire import parse_address_list

            addresses = parse_address_list(self.server_address)
            if self.replication is not None:
                if not isinstance(self.replication, int) or isinstance(
                    self.replication, bool
                ):
                    raise ValueError(
                        f"replication must be an int, got {self.replication!r}"
                    )
                if not (1 <= self.replication <= len(addresses)):
                    raise ValueError(
                        f"replication={self.replication} needs 1..{len(addresses)} "
                        f"(one address per replica), got {len(addresses)} addresses"
                    )
        elif self.replication is not None:
            raise ValueError("replication requires server_address")
        if self.heartbeat_interval_s is not None and self.heartbeat_interval_s <= 0:
            raise ValueError(
                f"heartbeat_interval_s must be positive, "
                f"got {self.heartbeat_interval_s}"
            )


@dataclass
class MLRConfig:
    """Top-level mLR configuration: ADMM + memoization + chunking.

    n_workers / n_shards:
        Simulated GPU workers and memoization-database shards (paper
        Sections 4.3 and 5.2) of the one
        :class:`~repro.core.memo_engine.MemoizedExecutor`.  The fleet shape
        is pure routing: every ``n_workers x n_shards`` is numerically
        identical to the default ``1 x 1`` for the paper-default private
        cache.
    memo_snapshot:
        Warm-start source for the memoization database tier: a snapshot
        directory written by :func:`repro.service.save_memo_snapshot` (or
        :meth:`~repro.core.mlr_solver.MLRSolver.save_memo_snapshot`), or an
        in-memory state tree from an executor's ``memo_state()``.  Loaded
        into the executor at solver construction; ``None`` starts cold.
        The snapshot must have been taken at the same tau — a mismatch
        fails fast with a ``ValueError``.
    obs:
        Observability knobs (:class:`~repro.obs.ObsConfig`).  When set, the
        solver installs it as the process-wide :mod:`repro.obs` runtime at
        construction — metrics registry, trace spans, JSONL export.
        ``None`` (the default) leaves the runtime alone, which means
        observability stays off unless ``REPRO_OBS=1`` is in the
        environment.
    """

    chunk_size: int = 16
    memo: MemoConfig = field(default_factory=MemoConfig)
    n_workers: int = 1
    n_shards: int = 1
    memo_snapshot: str | os.PathLike | dict | None = None
    obs: ObsConfig | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.memo, MemoConfig):
            raise ValueError(
                f"memo must be a MemoConfig, got {type(self.memo).__name__}"
            )
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.memo_snapshot is not None and not isinstance(
            self.memo_snapshot, (str, os.PathLike, dict)
        ):
            raise ValueError(
                "memo_snapshot must be a snapshot path, a memo-state tree or "
                f"None, got {type(self.memo_snapshot).__name__}"
            )
        if self.obs is not None and not isinstance(self.obs, ObsConfig):
            raise ValueError(
                f"obs must be an ObsConfig or None, got {type(self.obs).__name__}"
            )
