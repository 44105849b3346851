"""Layer spans recorded from the benchmark's side of the program's API.

:func:`install` wraps the public entry point of every layer so that each
call records a ``repro.obs`` span named ``bench.<layer>:<function>`` plus
the time its nested wrapped calls took, under the counter
``bench.<layer>:<function>.nested_s``.  A layer's self time is then
``span total - nested`` summed over its functions.  Recording goes through
``repro.obs``, so fork-started pool workers ship their spans back with
the executor's metric snapshots and the parent merges them.

The wrappers change no argument and no result; a traced run's result
digest must equal an untraced one's.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List

from repro import obs

import workloads

#: ``(module, attribute, layer)``: attributes are rebound where callers
#: look them up, so a name imported into a caller's namespace is wrapped
#: in that namespace.
TARGETS = (
    ("repro.store.shards", "generate_fleet_shards", "trace.render"),
    ("repro.store.shards", "open_box", "store.open"),
    ("repro.prediction.combined", "search_signature_set", "spatial.search"),
    ("repro.prediction.combined", "SpatialTemporalPredictor.fit", "temporal.fit"),
    (
        "repro.prediction.combined",
        "SpatialTemporalPredictor.refit_temporal",
        "temporal.fit",
    ),
    (
        "repro.prediction.combined",
        "SpatialTemporalPredictor.finish_fit",
        "temporal.fit",
    ),
    ("repro.prediction.combined", "fit_temporal_batch", "temporal.fit"),
    ("repro.prediction.combined", "fit_temporal_batch_warm", "temporal.fit"),
    ("repro.prediction.registry", "fit_temporal_fleet_batch", "temporal.fit"),
    ("repro.prediction.combined", "SpatialTemporalPredictor.predict", "forecast.predict"),
    ("repro.core.atm", "resize_allocation", "resize.solve"),
    ("repro.core.online", "resize_allocation", "resize.solve"),
    ("repro.resizing.evaluate", "resize_allocation", "resize.solve"),
    ("repro.core.stages", "evaluate_box_resizing", "resize.evaluate"),
    ("repro.tickets.ops.pipeline", "tickets_for_box", "tickets.monitor"),
    ("repro.tickets.ops.pipeline", "group_incidents", "tickets.group"),
    ("repro.tickets.ops.pipeline", "route_incidents", "tickets.route"),
    ("repro.tickets.ops.pipeline", "build_evidence", "evidence.build"),
    ("repro.store.artifacts", "ArtifactStore.put", "store.put"),
    ("repro.store.artifacts", "ArtifactStore.get", "store.get"),
)

#: Layers timed inside the fleet call; their self times plus
#: ``core.unaccounted_s`` make up the fleet's process-seconds.
FLEET_LAYERS = (
    "store.open",
    "spatial.search",
    "temporal.fit",
    "forecast.predict",
    "resize.solve",
    "resize.evaluate",
    "tickets.monitor",
    "tickets.group",
    "tickets.route",
    "evidence.build",
    "store.put",
    "store.get",
)

#: Kernel entry points whose calls count as one temporal fit pass each.
FIT_PASSES = (
    "temporal.fit:SpatialTemporalPredictor.fit",
    "temporal.fit:SpatialTemporalPredictor.refit_temporal",
    "temporal.fit:fit_temporal_fleet_batch",
)

# Elapsed time of nested wrapped calls, one slot per open wrapper.  One
# stack per process: forked workers start from a copy taken outside any
# wrapper.
_open: List[List[float]] = []


def _after_call(span: str, args: tuple, result) -> None:
    """Work counts read off a call's arguments and result."""
    if span == "spatial.search:search_signature_set":
        obs.inc("bench.spatial.series", result.n_series)
        obs.inc("bench.spatial.signatures", len(result.signature_indices))
    elif span.startswith("temporal.fit:SpatialTemporalPredictor."):
        obs.inc("bench.temporal.models", len(args[0].spatial_model.signature_indices))
    elif span.startswith("resize.solve:") and not result[1]:
        obs.inc("bench.resize.infeasible")
    elif span == "tickets.monitor:tickets_for_box":
        obs.inc("bench.tickets.tickets", len(result))
    elif span == "tickets.group:group_incidents":
        obs.inc("bench.tickets.incidents", len(result))
    elif span == "store.put:ArtifactStore.put" and args[0].persistent:
        path = args[0].path_for(args[1])
        if path is not None and path.exists():
            obs.inc("bench.store.written_bytes", path.stat().st_size)


def _wrap(fn: Callable, span: str) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        nested = [0.0]
        _open.append(nested)
        start = time.perf_counter()
        try:
            with obs.span(f"bench.{span}"):
                result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            _open.pop()
            obs.inc(f"bench.{span}.nested_s", nested[0])
            if _open:
                _open[-1][0] += elapsed
        _after_call(span, args, result)
        return result

    return traced


def install() -> None:
    """Wrap every target in place (once per process)."""
    for module_name, attr, layer in TARGETS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, name, _wrap(getattr(owner, name), f"{layer}:{attr}"))


def layer_self_times(spans: Dict[str, dict], counters: Dict[str, float]) -> Dict[str, float]:
    """Self seconds per layer from a ``repro.obs`` snapshot."""
    out: Dict[str, float] = {}
    for name, stat in spans.items():
        if not name.startswith("bench."):
            continue
        span = name[len("bench.") :]
        layer = span.split(":", 1)[0]
        nested = counters.get(f"bench.{span}.nested_s", 0.0)
        out[layer] = out.get(layer, 0.0) + stat["total_s"] - nested
    return out


def span_count(spans: Dict[str, dict], span: str) -> int:
    return int(spans.get(f"bench.{span}", {}).get("count", 0))


def layer_metrics(snapshot: dict, fleet_wall_s: float, jobs: int) -> Dict[str, float]:
    """The per-layer metrics of one traced fleet call.

    Times are self times.  With ``jobs`` worker processes the fleet has
    ``jobs * fleet_wall_s`` process-seconds; each ``_pct`` is a share of
    that, and ``core.unaccounted_s`` is what no layer span covers (the
    executor, the fold, orchestration and, at ``jobs > 1``, idle workers).
    """
    counters = snapshot["counters"]
    spans = snapshot["spans"]
    selfs = layer_self_times(spans, counters)
    budget = jobs * fleet_wall_s
    m: Dict[str, float] = {}
    for layer in FLEET_LAYERS:
        seconds = selfs.get(layer, 0.0)
        m[f"{layer}_s"] = seconds
        m[f"{layer}_pct"] = 100.0 * seconds / budget
    unaccounted = budget - sum(selfs.get(layer, 0.0) for layer in FLEET_LAYERS)
    series = counters.get("bench.spatial.series", 0.0)
    m.update(
        {
            "store.opened": span_count(spans, "store.open:open_box"),
            "store.mapped_mb": counters.get("shards.bytes_mapped", 0.0) / 1e6,
            "spatial.searches": span_count(spans, "spatial.search:search_signature_set"),
            "spatial.signature_pct": (
                100.0 * counters.get("bench.spatial.signatures", 0.0) / series
                if series
                else 0.0
            ),
            "temporal.fit_calls": sum(span_count(spans, s) for s in FIT_PASSES),
            "temporal.models": counters.get("bench.temporal.models", 0.0),
            "temporal.warm_models": counters.get("warm.models_warm", 0.0),
            "temporal.cold_refits": counters.get("warm.guard_cold_refits", 0.0),
            "resize.infeasible": counters.get("bench.resize.infeasible", 0.0),
            "tickets.tickets": counters.get("bench.tickets.tickets", 0.0),
            "tickets.incidents": counters.get("bench.tickets.incidents", 0.0),
            "store.writes": workloads.store_counter(counters, ".writes"),
            "store.written_mb": counters.get("bench.store.written_bytes", 0.0) / 1e6,
            "online.steps": counters.get("online.steps", 0.0),
            "online.drift_searches": counters.get("online.refit.drift", 0.0),
            "online.drift_skips": counters.get("online.drift_skips", 0.0),
            "core.fleet_wall_s": fleet_wall_s,
            "core.unaccounted_s": unaccounted,
            "core.unaccounted_pct": 100.0 * unaccounted / budget,
        }
    )
    return {name: float(value) for name, value in m.items()}


def render_metrics(snapshot: dict) -> Dict[str, float]:
    """Self time and bytes of one traced fleet render (set-up, not fleet)."""
    selfs = layer_self_times(snapshot["spans"], snapshot["counters"])
    return {
        "trace.render_s": selfs.get("trace.render", 0.0),
        "trace.shard_mb": snapshot["counters"].get("shards.bytes_written", 0.0) / 1e6,
    }

