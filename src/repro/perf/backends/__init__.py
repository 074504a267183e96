"""Pluggable distributed sweep backends (``--backend NAME[:OPTS]``).

The package splits distribution into two halves: backends
(:mod:`~repro.perf.backends.base`) only execute shards of cells, while
the driver (:mod:`~repro.perf.backends.driver`) owns fingerprints,
sharding, resume, journal merge, and observability — so every backend,
including third-party ones (see ``docs/BACKENDS.md``), inherits the
same byte-identical sweep semantics.

Importing this package registers the three built-in backends
(``inprocess``, ``pool``, ``remote``) with
:func:`~repro.perf.backends.base.make_backend`.
"""

from repro.perf.backends.base import (
    BACKEND_REGISTRY,
    CellOutcome,
    CellTask,
    Shard,
    ShardCell,
    SweepBackend,
    cell_tasks,
    make_backend,
    parse_backend_spec,
    register_backend,
)
from repro.perf.backends.driver import (
    MergeReport,
    existing_shard_journals,
    make_shards,
    merge_journals,
    run_specs_sharded,
    shard_journal_path,
)
from repro.perf.backends.inprocess import InProcessBackend
from repro.perf.backends.pool import PoolBackend
from repro.perf.backends.remote import RemoteBackend

__all__ = [
    "BACKEND_REGISTRY",
    "CellOutcome",
    "CellTask",
    "InProcessBackend",
    "MergeReport",
    "PoolBackend",
    "RemoteBackend",
    "Shard",
    "ShardCell",
    "SweepBackend",
    "cell_tasks",
    "existing_shard_journals",
    "make_backend",
    "make_shards",
    "merge_journals",
    "parse_backend_spec",
    "register_backend",
    "run_specs_sharded",
    "shard_journal_path",
]
