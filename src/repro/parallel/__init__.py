"""Fleet-scale parallel execution layer (the Sec. 2.3-2.4 scale-out seam).

PR 2 made single-trajectory hot paths vectorized; this package makes the
*fleet-level* workloads — pipeline collections, ablation grids, partitioned
query fan-out, pairwise similarity matrices — run on all cores:

* :mod:`~repro.parallel.executor` — the :class:`Executor` protocol with
  :class:`SerialExecutor` / :class:`ProcessExecutor` backends and the
  deterministic :func:`map_chunks` / :func:`map_reduce` API,
* :mod:`~repro.parallel.pool` — the process-wide
  :class:`WorkerPoolManager`: one warm, prewarmed, health-checked pool per
  ``(workers, start_method)`` key, leased to consumers through
  :func:`get_executor` and torn down by :func:`shutdown_all` (``atexit``),
* :mod:`~repro.parallel.dispatch` — the calibrated serial-vs-parallel cost
  model (:class:`DispatchModel`): each batch routes at its measured
  crossover, overridable via ``REPRO_PARALLEL_DISPATCH``,
* :mod:`~repro.parallel.chunking` — worker-count-independent chunk spans
  and stable per-item seed derivation,
* :mod:`~repro.parallel.shm` — zero-copy shared-memory handoff of the PR-2
  columnar blocks (:class:`SharedArray`, :class:`SharedTrajectoryBatch`):
  the owner creates and unlinks each segment, workers attach per task.

Consumers: :meth:`repro.core.Pipeline.run_many` /
:meth:`~repro.core.Pipeline.run_ablations`,
:class:`repro.querying.PartitionedStore` batched queries,
:func:`repro.analytics.pairwise_distances`, the serving layer's warm
executor, and the Table-1 grid runner (``benchmarks/table1_grid.py``).
Every consumer's ``workers=1`` path is bit-identical to its parallel path
(``tests/test_parallel.py``) — which is also what makes below-crossover
serial downgrades safe.
"""

from .chunking import chunk_spans, derive_seed, derive_seeds
from .dispatch import (
    DISPATCH_ENV,
    DispatchModel,
    calibrate_dispatch,
    dispatch_decision,
    dispatch_mode,
)
from .executor import (
    START_METHOD_ENV,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    default_start_method,
    get_executor,
    map_chunks,
    map_reduce,
    resolve_executor,
)
from .pool import PoolLease, PoolStats, WorkerPoolManager, get_pool_manager, shutdown_all
from .shm import ArrayHandle, SharedArray, SharedTrajectoryBatch, TrajectoryBatchHandle

__all__ = [
    "chunk_spans",
    "derive_seed",
    "derive_seeds",
    "DISPATCH_ENV",
    "DispatchModel",
    "calibrate_dispatch",
    "dispatch_decision",
    "dispatch_mode",
    "START_METHOD_ENV",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "default_start_method",
    "get_executor",
    "map_chunks",
    "map_reduce",
    "resolve_executor",
    "PoolLease",
    "PoolStats",
    "WorkerPoolManager",
    "get_pool_manager",
    "shutdown_all",
    "ArrayHandle",
    "SharedArray",
    "SharedTrajectoryBatch",
    "TrajectoryBatchHandle",
]
