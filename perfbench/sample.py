"""One benchmark sample: render the fleet, open it, run the fleet call.

Runs in a process forked for the sample from a parent that has only
imported the program, so no signature cache, artifact memory tier or
``lru_cache`` carries over from an earlier sample.  The shard root and
(for ``ops``) the artifact store root are fresh directories under
``work``.
"""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import time
import types
from pathlib import Path

from repro import obs
from repro.store import shards

import hostspeed
import workloads

#: A render shorter than this is repeated (into a fresh store each time)
#: until this much set-up has been timed, at most ``SETUP_MAX_REPS`` times.
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 8


def _peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped workers (Linux reports KiB)."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak * 1024 / 1e6


def _cpu_s() -> "tuple[float, float]":
    """User and system CPU seconds of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + workers.ru_utime, own.ru_stime + workers.ru_stime


def run_sample(
    workload: workloads.Workload,
    fleet_seed: int,
    boxes: int,
    work: Path,
    traced: bool,
    probed: bool,
) -> dict:
    """Set up and run one fleet call; return its timings, checks and digest.

    ``setup_wall_s`` lists each render of the fleet into a fresh shard
    store plus opening it: a short render is repeated until
    ``SETUP_MIN_S`` have been timed.  ``wall_s`` covers the fleet call
    alone, on the first store.  A ``probed`` sample probes the host's
    speed over each set-up and over the fleet call (``hostspeed``) and
    also reports those times in reference seconds, ``setup_s`` and
    ``fleet_s``.
    """
    if traced:
        import tracing

        tracing.install()

    def probe(name: str):
        if not probed:
            return contextlib.nullcontext(types.SimpleNamespace(speed=None))
        return hostspeed.Probe(work / name)

    setup_wall_s, setup_s, renders = [], [], []
    while not setup_wall_s or (
        sum(setup_wall_s) < SETUP_MIN_S and len(setup_wall_s) < SETUP_MAX_REPS
    ):
        root = work / f"shards-{len(setup_wall_s)}"
        obs.reset_metrics()
        with probe(f"probe-setup-{len(setup_wall_s)}") as host:
            start = time.perf_counter()
            shards.generate_fleet_shards(
                workloads.fleet_config(workload, fleet_seed, boxes),
                root,
                scenario=workloads.scenario_spec(workload),
                jobs=1,
            )
            fleet = shards.ShardedFleet(root)
            setup_wall_s.append(time.perf_counter() - start)
        if host.speed is not None:
            setup_s.append(setup_wall_s[-1] * host.speed)
        if traced:
            renders.append(tracing.render_metrics(obs.metrics_snapshot()))
    fleet = shards.ShardedFleet(work / "shards-0")
    # Write the rendered shards out now, not during the timed fleet call.
    os.sync()

    if workload.kind == "ops":
        os.environ["REPRO_STORE"] = str(work / "store")
    config = workloads.run_config(workload)
    if workload.kind == "ops":
        eligible = fleet.n_boxes
    else:
        needed = config.training_windows + config.horizon_windows
        eligible = sum(1 for ref in fleet.box_refs() if ref.n_windows >= needed)

    obs.reset_metrics()
    cpu_before = _cpu_s()
    with probe("probe-fleet") as host:
        start = time.perf_counter()
        result = workloads.run_fleet(workload, fleet, config)
        wall_s = time.perf_counter() - start
    cpu_s = [after - before for after, before in zip(_cpu_s(), cpu_before)]
    snapshot = obs.metrics_snapshot()

    counters = snapshot["counters"]
    out = workloads.summarize(workload, result, eligible, counters)
    out.update(
        fleet_seed=fleet_seed,
        setup_wall_s=setup_wall_s,
        setup_s=setup_s,
        wall_s=wall_s,
        speed=host.speed,
        cpu_user_s=cpu_s[0],
        cpu_sys_s=cpu_s[1],
        fleet_s=None if host.speed is None else wall_s * host.speed,
        eligible=eligible,
        vms=fleet.n_vms,
        peak_rss_mb=_peak_rss_mb(),
        reuse={name: counters.get(name, 0.0) for name in workloads.REUSE_COUNTERS},
    )
    if traced:
        out["layers"] = dict(
            tracing.layer_metrics(snapshot, wall_s, workload.resolved_jobs()),
            **{
                "trace.render_s": statistics.median(r["trace.render_s"] for r in renders),
                "trace.shard_mb": renders[0]["trace.shard_mb"],
            },
        )
    return out
