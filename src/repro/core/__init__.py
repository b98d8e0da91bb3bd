"""mLR core: the memoization engine (:class:`MemoizedExecutor` — W workers x
N shards, 1 x 1 by default), caches, coalescer, the sharded memoization
database tier (:class:`MemoShardRouter`), offload planner, multi-GPU
scaling, and the trace-driven performance simulation."""

from .coalescer import CoalesceStats, KeyCoalescer
from .config import MemoConfig, MLRConfig, ObsConfig
from .keying import CNNKeyEncoder, PoolKeyEncoder, chunk_to_image, chunk_to_stack, pool3d
from .memo_cache import CacheHit, CacheStats, GlobalMemoCache, PrivateMemoCache
from .memo_db import MemoDatabase, MemoDBStats, QueryOutcome
from .memo_engine import (
    CASE_CACHE,
    CASE_DB,
    CASE_DIRECT,
    CASE_MISS,
    MemoEvent,
    MemoizedExecutor,
    WorkerState,
)
from .memo_shard import (
    MemoShard,
    MemoShardRouter,
    ShardInsert,
    ShardQuery,
    shard_of_location,
)
from .mlr_solver import MLRResult, MLRSolver
from .offload import (
    AccessPoint,
    IterationSchedule,
    OffloadAction,
    OffloadPlanner,
    PlanOutcome,
    greedy_offload,
    lru_offload,
)
from .perfsim import (
    IterationPerf,
    coalesce_comparison,
    memo_case_breakdown,
    simulate_iteration,
)
from .scaling import GPUAssignment, distribute_chunks

__all__ = [
    "CoalesceStats",
    "KeyCoalescer",
    "MemoConfig",
    "MLRConfig",
    "ObsConfig",
    "CNNKeyEncoder",
    "PoolKeyEncoder",
    "chunk_to_image",
    "chunk_to_stack",
    "pool3d",
    "CacheHit",
    "CacheStats",
    "GlobalMemoCache",
    "PrivateMemoCache",
    "MemoDatabase",
    "MemoDBStats",
    "QueryOutcome",
    "MemoShard",
    "MemoShardRouter",
    "ShardInsert",
    "ShardQuery",
    "shard_of_location",
    "WorkerState",
    "CASE_CACHE",
    "CASE_DB",
    "CASE_DIRECT",
    "CASE_MISS",
    "MemoEvent",
    "MemoizedExecutor",
    "MLRResult",
    "MLRSolver",
    "AccessPoint",
    "IterationSchedule",
    "OffloadAction",
    "OffloadPlanner",
    "PlanOutcome",
    "greedy_offload",
    "lru_offload",
    "IterationPerf",
    "coalesce_comparison",
    "memo_case_breakdown",
    "simulate_iteration",
    "GPUAssignment",
    "distribute_chunks",
]
