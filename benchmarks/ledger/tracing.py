"""Outside-in tracing: timing shims around the layers' public callables.

The program under test is not edited.  :class:`Tracer` swaps the callables
listed in :data:`SHIMS` for wrappers that record a span — name, start, end,
parent, job id, thread — and :meth:`Tracer.remove` puts the exact original
objects back.  Spans stay in memory; the runner writes them out once the
workload is done.  A shim outside a job (``tracer.job is None``) is a plain
pass-through, so the benchmark's own exact ``ops.forward`` calls never
show up in a job's trace.
"""

from __future__ import annotations

import importlib
import itertools
import threading
from time import perf_counter

__all__ = ["SHIMS", "Tracer"]

#: (module, owner or None for a module attribute, attribute, span name).
#: Class attributes throughout: jobs build their own solver, executor,
#: database and (on ``service_warm``) operator instances, so there is no
#: one instance to hook.  Subclasses inherit the shimmed methods
#: (``MemoizedExecutor`` from ``DirectExecutor``, ``ArrayStore`` from
#: ``KVStore``).
SHIMS = (
    ("repro.lamino.operators", "LaminoOperators", "__init__", "lamino.plan_build"),
    ("repro.lamino.operators", "LaminoOperators", "fu1d", "lamino.fu1d"),
    ("repro.lamino.operators", "LaminoOperators", "fu1d_adj", "lamino.fu1d_adj"),
    ("repro.lamino.operators", "LaminoOperators", "fu2d", "lamino.fu2d"),
    ("repro.lamino.operators", "LaminoOperators", "fu2d_adj", "lamino.fu2d_adj"),
    ("repro.lamino.operators", "LaminoOperators", "f2d", "lamino.f2d"),
    ("repro.solvers.lsp", None, "estimate_normal_lipschitz", "solvers.lipschitz"),
    ("repro.solvers.admm", "ADMMSolver", "__init__", "solvers.init"),
    ("repro.solvers.admm", "ADMMSolver", "run", "solvers.run"),
    ("repro.solvers.executor", "DirectExecutor", "fu1d", "exec.fu1d"),
    ("repro.solvers.executor", "DirectExecutor", "fu1d_adj", "exec.fu1d_adj"),
    ("repro.solvers.executor", "DirectExecutor", "fu2d", "exec.fu2d"),
    ("repro.solvers.executor", "DirectExecutor", "fu2d_adj", "exec.fu2d_adj"),
    ("repro.solvers.executor", "DirectExecutor", "f2d", "exec.f2d"),
    ("repro.core.mlr_solver", "MLRSolver", "__init__", "memo.init"),
    ("repro.core.mlr_solver", "MLRSolver", "reconstruct", "memo.reconstruct"),
    ("repro.core.mlr_solver", "MLRSolver", "close", "memo.close"),
    ("repro.core.keying", "PoolKeyEncoder", "encode", "memo.encode"),
    ("repro.core.memo_cache", "PrivateMemoCache", "lookup", "memo.cache_lookup"),
    ("repro.core.memo_db", "MemoDatabase", "query", "memo.db_query"),
    ("repro.core.memo_db", "MemoDatabase", "query_batch", "memo.db_query"),
    ("repro.core.memo_db", "MemoDatabase", "insert", "memo.db_insert"),
    ("repro.core.memo_db", "MemoDatabase", "insert_batch", "memo.db_insert"),
    ("repro.ann.ivf", "IVFFlatIndex", "search", "ann.search"),
    ("repro.ann.ivf", "IVFFlatIndex", "add", "ann.add"),
    ("repro.ann.ivf", "IVFFlatIndex", "train", "ann.train"),
    ("repro.kvstore.store", "KVStore", "put", "kvstore.put"),
    ("repro.kvstore.store", "KVStore", "get", "kvstore.get"),
    ("repro.net.client", "RemoteMemoClient", "query_batch", "net.query_batch"),
    ("repro.net.client", "RemoteMemoClient", "insert_batch", "net.insert_batch"),
    ("repro.net.client", "RemoteMemoClient", "flush", "net.flush"),
    ("repro.service.jobs", "JobSpec", "materialize", "service.materialize"),
    ("repro.service.scheduler", "SharedMemoService", "seed", "service.seed"),
    ("repro.service.scheduler", "SharedMemoService", "absorb", "service.absorb"),
)


class Tracer:
    """Span recorder plus the install/remove of the shims.

    One job runs at a time (the workloads are closed loops with one
    client), so the current job id is a plain attribute that daemon and
    scheduler threads read too; the parent stack is per thread.
    """

    def __init__(self) -> None:
        #: ``(id, parent, name, start, end, job, thread)``; parent 0 = none
        self.spans: list[tuple] = []
        self.job: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._root: tuple[int, float] | None = None

    # -- spans ---------------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        def shim(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, parent, name, t0, t1, job, threading.get_ident())
                )

        shim.__wrapped__ = fn
        return shim

    def begin_job(self, job: str) -> None:
        """Open the job's root span on the calling thread."""
        sid = next(self._ids)
        self._stack().append(sid)
        self._root = (sid, perf_counter())
        self.job = job

    def end_job(self) -> float:
        """Close the root span; returns the job's wall time."""
        t1 = perf_counter()
        sid, t0 = self._root
        job, self.job, self._root = self.job, None, None
        self._stack().pop()
        self.spans.append((sid, 0, "job", t0, t1, job, threading.get_ident()))
        return t1 - t0

    def span_cost_s(self, calls: int = 20000) -> float:
        """Seconds one span adds to the call it wraps, measured on a no-op:
        what tracing costs a job is its span count times this, whatever the
        sandbox does to the job's wall meanwhile."""

        def noop():
            pass

        shim = self._wrap("calibration", noop)
        first = len(self.spans)
        self.begin_job("calibration")
        t0 = perf_counter()
        for _ in range(calls):
            shim()
        shimmed = perf_counter() - t0
        self.end_job()
        del self.spans[first:]
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        return (shimmed - (perf_counter() - t0)) / calls

    # -- shims ---------------------------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("shims already installed")
        for module, owner_name, attr, span_name in SHIMS:
            owner = importlib.import_module(module)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            raw = vars(owner)[attr]  # the raw object, e.g. the staticmethod itself
            if isinstance(raw, staticmethod):
                shim = staticmethod(self._wrap(span_name, raw.__func__))
            else:
                shim = self._wrap(span_name, raw)
            setattr(owner, attr, shim)
            self._installed.append((owner, attr, raw))

    def remove(self) -> None:
        """Put every original object back (identity, not just behaviour)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
