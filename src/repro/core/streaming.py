"""The fleet kernel: one streaming, constant-memory loop over a fleet's boxes.

The paper deploys ATM per box and evaluates it as a per-box loop over the
fleet.  Every fleet entry point —
:func:`repro.core.pipeline.run_fleet_atm`,
:func:`repro.resizing.evaluate.evaluate_fleet_resizing`,
:func:`repro.core.online.run_online_fleet` and
:func:`repro.tickets.ops.run_fleet_ops` — runs that loop through
:func:`run_fleet`, which owns everything the loop needs besides the
per-box work and the fold:

* listing the boxes: a ``FleetTrace``'s boxes, or a
  :class:`~repro.store.shards.ShardedFleet`'s ``box_refs()`` so no shard
  is opened in the parent and workers receive descriptors;
* eligibility (``n_windows >= needed_windows``) and the one empty-fleet
  rule: no eligible box raises ``ValueError``;
* :class:`~repro.core.executor.FleetExecutor` construction, including the
  fused-chunk cap;
* the caller's ``*.fleet`` span;
* streaming dispatch through :meth:`FleetExecutor.imap`: each heavy
  per-box result is folded and dropped before the next chunk lands, so
  resident results stay O(workers), not O(fleet).

:class:`TicketHistogram` is an incremental fixed-bin reducer over
per-box ticket reductions (the Fig. 8/10 axis), so reduction shapes
survive a streaming sweep without any per-box list growing with payloads.
The reducers here are deliberately plain Python (ints and a short
counts list): they are updated once per box from inside the fold loop
and must never become the thing that scales with fleet size.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator, List, Optional, Sequence

from repro import obs
from repro.core import faults
from repro.core.executor import FleetExecutor, default_chunksize

__all__ = ["FUSED_CHUNK_BOXES", "TicketHistogram", "run_fleet"]

#: Upper bound on boxes gathered into one fused training chunk.  The
#: fused plane holds every gathered box's training slice and controller
#: live for the duration of the chunk, so the cap keeps the per-worker
#: gather footprint flat (tens of MB at paper-sized boxes) and preserves
#: the sublinear peak-RSS scaling pinned by BENCH_scale.json — fusion
#: batches per chunk, never per fleet.
FUSED_CHUNK_BOXES = 64


def run_fleet(
    fleet: Any,
    box_fn: Callable[..., Any],
    *common: Any,
    needed_windows: int = 0,
    item_fn: Optional[Callable[[Any], Any]] = None,
    chunk_fn: Optional[Callable[..., Sequence[Any]]] = None,
    jobs: Optional[int] = None,
    chunksize: Optional[int] = None,
    retries: int = 0,
    span: str,
) -> Iterator[Any]:
    """Yield ``box_fn(item, *common)`` for every eligible box, in fleet order.

    Boxes shorter than ``needed_windows`` are skipped; a fleet with no
    eligible box raises ``ValueError`` before any work starts, whatever
    the caller's degradation policy.  So does a malformed ``REPRO_FAULTS``
    spec: the fault plan is resolved here, once, rather than inside each
    box's degradation ladder, which would report every box failed.

    ``item_fn`` maps each eligible box (a ``BoxTrace`` or a
    ``BoxShardRef``) to the item ``box_fn`` receives; by default the box
    itself.

    ``chunk_fn``, when given, runs each chunk's items together (the
    fleet-fused training plane).  Unless ``chunksize`` is set, its chunks
    are capped at :data:`FUSED_CHUNK_BOXES`: the gather phase holds a
    whole chunk's training slices at once, so the RSS bound must come
    from the chunk size, never the fleet size.  Serially there is no
    straggler risk to balance, so a chunk takes the whole cap — bigger
    chunks mean fuller mega-batches.

    ``jobs``, ``chunksize`` and ``retries`` configure the
    :class:`FleetExecutor`; results arrive in fleet box order for any
    worker count.  The returned generator times its whole iteration,
    the caller's fold included, under the ``span`` timer.
    """
    boxes = fleet.box_refs() if hasattr(fleet, "box_refs") else fleet
    items = [box for box in boxes if box.n_windows >= needed_windows]
    if not items:
        raise ValueError(
            f"no box in fleet {fleet.name!r} has the {needed_windows} "
            "windows required"
        )
    faults.active_plan()  # parses REPRO_FAULTS: a bad spec raises here
    if item_fn is not None:
        items = [item_fn(box) for box in items]
    executor = FleetExecutor(jobs=jobs, chunksize=chunksize, retries=retries)
    if chunk_fn is not None and chunksize is None:
        executor.chunksize = (
            FUSED_CHUNK_BOXES
            if executor.jobs == 1
            else min(default_chunksize(len(items), executor.jobs), FUSED_CHUNK_BOXES)
        )
    return _timed(span, executor.imap(box_fn, items, *common, chunk_fn=chunk_fn))


def _timed(span: str, results: Iterator[Any]) -> Iterator[Any]:
    with obs.span(span):
        yield from results


class TicketHistogram:
    """Streaming histogram of per-box ticket-reduction percentages.

    Bins span the paper's Fig. 8/10 axis, ``[-100, 100]`` percent in
    ``width``-point steps (clipped reductions never leave it; values are
    clamped to the edge bins regardless).  Non-finite reductions — boxes
    with no tickets to begin with — are tallied separately, mirroring how
    the mean/std aggregations skip them.

    State is a fixed-size counts list plus three scalars, so the reducer
    is O(bins) no matter how many boxes stream through it.
    """

    LO = -100.0
    HI = 100.0

    def __init__(self, width: float = 5.0) -> None:
        if width <= 0:
            raise ValueError(f"bin width must be positive, got {width}")
        self.width = float(width)
        self.n_bins = int(math.ceil((self.HI - self.LO) / self.width))
        self.counts: List[int] = [0] * self.n_bins
        self.nan_count = 0
        self.total = 0
        self._sum = 0.0

    def add(self, reduction_pct: float) -> None:
        """Fold one box's reduction percentage into the histogram."""
        self.total += 1
        value = float(reduction_pct)
        if not math.isfinite(value):
            self.nan_count += 1
            return
        self._sum += value
        index = int((value - self.LO) // self.width)
        self.counts[max(0, min(self.n_bins - 1, index))] += 1

    @property
    def finite_count(self) -> int:
        return self.total - self.nan_count

    def mean(self) -> float:
        """Mean of the finite reductions (``nan`` when there are none)."""
        if self.finite_count == 0:
            return float("nan")
        return self._sum / self.finite_count

    def edges(self) -> List[float]:
        """The ``n_bins + 1`` bin edges, for plotting."""
        return [self.LO + i * self.width for i in range(self.n_bins + 1)]

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (the shape ``--metrics-json`` consumers get)."""
        return {
            "edges": self.edges(),
            "counts": list(self.counts),
            "nan_count": self.nan_count,
            "total": self.total,
        }
