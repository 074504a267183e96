"""Sharded sweep driver: the one path every sweep runs through.

:func:`repro.perf.runtime.run_specs_resilient` resolves a policy and a
backend and hands the sweep here.  The driver owns everything above the
``submit_shard / drain / close`` line, so every backend gets the same
semantics for free:

* **identity** — each spec's :func:`~repro.perf.runtime.spec_fingerprint`
  is computed here and rides the :class:`~repro.perf.backends.base.ShardCell`;
* **resume** — leftover shard journals from a killed run are merged into
  the sweep journal first, then journaled cells are spliced into the
  results unrun;
* **sharding** — pending cells round-robin across the backend's lanes
  (cell *i* of the pending list lands in shard ``i % lanes``), a pure
  function of the spec list and lane count, so two runs shard alike;
* **merge** — after ``drain``, :func:`merge_journals` splices the shard
  journals back into one sweep journal (byte-splicing records, never
  re-pickling) and the shard files are removed;
* **observability** — ``colorbars.backend.*`` metrics, and each
  observed cell's root span stamped with the ``shard`` that ran it
  (``"resumed"`` for journaled cells), so one root -> cell trace shape
  (:func:`repro.obs.trace.assemble_trace`) serves every backend.

Backends only execute cells; the driver guarantees that whatever they
are, the sweep's results, journal, and failure records look the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import BackendError, CellFailure, JournalError
from repro.link.simulator import LinkResult, RunSpec
from repro.obs.schema import (
    M_BACKEND_CELLS,
    M_BACKEND_LANES,
    M_BACKEND_MERGED_CELLS,
    M_BACKEND_SHARDS,
    M_BACKEND_WORKER_RESTARTS,
)
from repro.perf.backends.base import Shard, ShardCell, SweepBackend
from repro.perf.runtime import (
    RunJournal,
    RuntimeResult,
    record_sweep_metrics,
    spec_fingerprint,
)

# -- shard journals --------------------------------------------------------


def shard_journal_path(journal_path, shard_id: int) -> str:
    """Where shard ``shard_id`` of the sweep journal checkpoints."""
    return f"{Path(journal_path)}.shard-{int(shard_id)}"


def existing_shard_journals(journal_path) -> List[Path]:
    """Leftover shard journal files of a sweep journal, in shard order."""
    base = Path(journal_path)

    def shard_number(path: Path) -> Tuple[int, str]:
        suffix = path.name.rpartition("-")[2]
        return (int(suffix), "") if suffix.isdigit() else (1 << 30, path.name)

    return sorted(base.parent.glob(base.name + ".shard-*"), key=shard_number)


@dataclass
class MergeReport:
    """What :func:`merge_journals` did: the merged view, and how it got there."""

    #: Post-merge fingerprint -> result (what a subsequent resume loads).
    entries: Dict[str, LinkResult]
    #: Records spliced into the target (duplicates contribute nothing).
    appended: int
    #: Fingerprints where a shard disagreed with the already-merged bytes.
    conflicts: int


def merge_journals(shard_paths, target, on_conflict: str = "last") -> MergeReport:
    """Splice shard journals into one sweep journal, byte-identically.

    Records are copied with their original base64 payloads (never
    re-pickled), so the merged journal resolves each cell to exactly the
    bytes some shard wrote.  A record whose fingerprint is already merged
    with *identical* bytes is a no-op; differing bytes are a conflict:
    ``on_conflict="last"`` lets the later shard win (cells are pure
    functions of their specs, so a genuine conflict implies foul play or
    corruption — last-write matches the journal's own load semantics),
    ``"error"`` raises :class:`~repro.exceptions.JournalError` instead.
    """
    if on_conflict not in ("last", "error"):
        raise JournalError(
            f"on_conflict must be 'last' or 'error', got {on_conflict!r}"
        )
    if not isinstance(target, RunJournal):
        target = RunJournal(target)
    merged: Dict[str, str] = {}
    entries: Dict[str, LinkResult] = {}
    for fingerprint, payload, result in target.records():
        merged[fingerprint] = payload
        entries[fingerprint] = result
    appended = 0
    conflicts = 0
    for path in shard_paths:
        for fingerprint, payload, result in RunJournal(path).records():
            prior = merged.get(fingerprint)
            if prior == payload:
                continue
            if prior is not None:
                conflicts += 1
                if on_conflict == "error":
                    raise JournalError(
                        f"shard journal {path} disagrees with the merged "
                        f"sweep on cell {fingerprint[:12]}"
                    )
            target.append_record(fingerprint, payload)
            merged[fingerprint] = payload
            entries[fingerprint] = result
            appended += 1
    return MergeReport(entries=entries, appended=appended, conflicts=conflicts)


# -- sharding --------------------------------------------------------------


def make_shards(
    cells: Sequence[ShardCell], lanes: int, journal_path=None
) -> List[Shard]:
    """Round-robin ``cells`` into at most ``lanes`` non-empty shards.

    Cell *i* of the list lands in shard ``i % lanes`` — a pure function
    of (cell order, lane count), so two runs of the same sweep shard
    identically and a resumed run re-shards only what is still pending.
    """
    if not cells:
        return []
    lane_count = max(1, min(int(lanes), len(cells)))
    buckets: List[List[ShardCell]] = [[] for _ in range(lane_count)]
    for position, cell in enumerate(cells):
        buckets[position % lane_count].append(cell)
    return [
        Shard(
            shard_id=shard_id,
            cells=tuple(bucket),
            journal_path=(
                shard_journal_path(journal_path, shard_id)
                if journal_path is not None
                else None
            ),
        )
        for shard_id, bucket in enumerate(buckets)
    ]


# -- the drive -------------------------------------------------------------


def _stamp_shard(result: LinkResult, shard) -> None:
    """Record on an observed cell's root span which shard ran it.

    Attributes only, like ``cell_index``/``attempt``: the span tree stays
    a pure function of the specs whatever the lane count.
    """
    if result.trace:
        result.trace[0].set("shard", shard)


def run_specs_sharded(
    specs: Sequence[RunSpec],
    backend: SweepBackend,
    journal=None,
    resume: bool = False,
    observe: bool = False,
    metrics=None,
) -> RuntimeResult:
    """Execute ``specs`` through a :class:`SweepBackend`, shard by shard.

    ``journal`` is a path or :class:`RunJournal`; ``resume`` splices its
    cells into the results unrun, otherwise it is discarded first.
    ``observe`` (implied by ``metrics``) observes this sweep's cells
    without changing the backend's own setting.  The returned
    :class:`RuntimeResult` carries ``shard_of`` (per spec, which shard
    ran it — ``None`` for resumed cells).  The caller keeps ownership of
    the backend (close it when done).
    """
    specs = list(specs)
    if metrics is not None:
        observe = True
    if journal is not None and not isinstance(journal, RunJournal):
        journal = RunJournal(journal)

    merged_cells = 0
    journaled: Dict[str, LinkResult] = {}
    if journal is not None:
        leftovers = existing_shard_journals(journal.path)
        if resume:
            report = merge_journals(leftovers, journal)
            merged_cells += report.appended
            journaled = report.entries
        else:
            journal.discard()
        for path in leftovers:
            RunJournal(path).discard()

    results: List[Optional[LinkResult]] = [None] * len(specs)
    failures: List[CellFailure] = []
    resumed = 0
    pending: List[ShardCell] = []
    for index, spec in enumerate(specs):
        fingerprint = spec_fingerprint(spec)
        prior = journaled.get(fingerprint)
        if prior is not None:
            _stamp_shard(prior, "resumed")
            results[index] = prior
            resumed += 1
        else:
            pending.append(
                ShardCell(index=index, fingerprint=fingerprint, spec=spec)
            )

    shard_of: List[Optional[int]] = [None] * len(specs)
    shards: List[Shard] = []
    retried_before = backend.cells_retried
    restarts_before = backend.worker_restarts
    if pending:
        shards = make_shards(
            pending,
            backend.lanes,
            journal_path=journal.path if journal is not None else None,
        )
        for shard in shards:
            backend.submit_shard(shard)
            for cell in shard.cells:
                shard_of[cell.index] = shard.shard_id
        # Observing is per sweep: a caller-owned backend is handed back
        # observing exactly as it was built.
        built_observing = backend.observe
        backend.observe = built_observing or observe
        try:
            outcomes = backend.drain()
        finally:
            backend.observe = built_observing
        for outcome in outcomes:
            if outcome.result is not None:
                _stamp_shard(outcome.result, shard_of[outcome.index])
                results[outcome.index] = outcome.result
            elif outcome.failure is not None:
                failures.append(outcome.failure)
        failed = {failure.index for failure in failures}
        holes = [
            cell.index
            for cell in pending
            if results[cell.index] is None and cell.index not in failed
        ]
        if holes:
            raise BackendError(
                f"backend {backend.name!r} returned no outcome for "
                f"cell(s) {holes[:5]}; the drain contract requires one "
                f"per submitted cell"
            )
        failures.sort(key=lambda failure: failure.index)
        if journal is not None:
            report = merge_journals(
                [shard.journal_path for shard in shards], journal
            )
            merged_cells += report.appended
            for shard in shards:
                shard.journal().discard()

    outcome = RuntimeResult(
        results=results, failures=failures, resumed=resumed, shard_of=shard_of
    )
    if metrics is not None:
        record_sweep_metrics(
            metrics,
            results,
            failures,
            retried=backend.cells_retried - retried_before,
            resumed=resumed,
            workers=backend.lanes,
        )
        metrics.gauge(M_BACKEND_LANES).set(backend.lanes)
        metrics.gauge(M_BACKEND_SHARDS).set(len(shards))
        metrics.counter(M_BACKEND_CELLS).inc(len(pending))
        metrics.counter(M_BACKEND_WORKER_RESTARTS).inc(
            backend.worker_restarts - restarts_before
        )
        metrics.counter(M_BACKEND_MERGED_CELLS).inc(merged_cells)
    return outcome
