"""The benchmark's workloads: what each one renders, runs and checks.

Imported by both the orchestrator (``run.py``, which never imports the
program) and the per-sample child (``child.py``, which does), so every
function that touches ``repro`` imports it lazily.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Seed used when ``--seed`` is not given.  A different seed regenerates
#: only the fleets; scenario, configuration and sizes stay fixed.
DEFAULT_SEED = 20160628

#: Counters that mean "served from a previous run": every run starts from
#: fresh processes and fresh roots, so each must read exactly 0.
REUSE_COUNTERS = (
    "pipeline.resume.hits",
    "ops.resume.hits",
    "stages.forecast.hits",
    "warm.resume_hits",
)

#: Refit cap of the online workload: large enough that the drift gate,
#: not the cadence, decides when the signature search re-runs.
ONLINE_REFIT_CAP = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``atm`` (run_fleet_atm), ``ops`` (run_fleet_ops) or ``online``
    #: (run_online_fleet).
    kind: str
    scenario: str
    days: int
    #: Boxes of the rendered fleet, i.e. of one fleet call.
    boxes: int
    #: Worker processes of the fleet call; 0 means one per CPU.
    jobs: int
    temporal_model: Optional[str]
    #: Bands the median over a run's fleets of each fidelity metric must
    #: fall in, whatever the seed: about twice the spread seen over ten
    #: seeds on each side, so they catch a broken result, not noise.
    bands: Tuple[Tuple[str, float, float], ...]
    why: str

    def resolved_jobs(self) -> int:
        return self.jobs or (os.cpu_count() or 1)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-neural",
            kind="atm",
            scenario="paper-fig2",
            days=6,
            boxes=32,
            jobs=1,
            temporal_model="neural",
            bands=(
                ("ape_pct", 20.0, 50.0),
                ("peak_ape_pct", 8.0, 40.0),
                ("cpu_reduction_pct", 50.0, 100.0),
                ("ram_reduction_pct", 60.0, 100.0),
            ),
            why="paper pipeline, CBC + fused neural fit + MCKP; temporal fit is "
            "most of the run",
        ),
        Workload(
            name="paper-seasonal",
            kind="atm",
            scenario="paper-fig2",
            days=6,
            boxes=300,
            jobs=1,
            temporal_model="seasonal_mean",
            bands=(
                ("ape_pct", 18.0, 40.0),
                ("peak_ape_pct", 8.0, 30.0),
                ("cpu_reduction_pct", 55.0, 100.0),
                ("ram_reduction_pct", 65.0, 100.0),
            ),
            why="same pipeline without the neural kernel; resize, evaluate and "
            "search dominate",
        ),
        Workload(
            name="fleet-ops",
            kind="ops",
            scenario="paper-fig2",
            days=7,
            boxes=280,
            jobs=0,
            temporal_model=None,
            bands=(("sla_breach_pct", 8.0, 30.0),),
            why="ticket ops at jobs=nproc over a fresh store; no prediction, "
            "store writes and monitor dominate",
        ),
        Workload(
            name="online-shift",
            kind="online",
            scenario="regime-shift",
            days=10,
            boxes=14,
            jobs=1,
            temporal_model="neural",
            bands=(
                ("ape_pct", 40.0, 110.0),
                ("cpu_reduction_pct", 25.0, 90.0),
                ("ram_reduction_pct", 50.0, 100.0),
            ),
            why="rolling controller on a regime shift; warm refits, drift gate "
            "and per-step resizing",
        ),
    )
}


def fleet_seed(seed: int, sample: int) -> int:
    """Fleet seed of a run's ``sample``-th fleet: every sample of a run
    renders a fleet of its own, so a run averages over more boxes."""
    digest = hashlib.blake2b(f"{seed}:{sample}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") >> 1


# ------------------------------------------------------------- program side
def fleet_config(workload: Workload, seed: int, boxes: int):
    from repro.trace.generator import FleetConfig

    return FleetConfig(n_boxes=boxes, days=workload.days, seed=seed)


def scenario_spec(workload: Workload):
    from repro.trace.scenario import resolve_scenario

    return resolve_scenario(workload.scenario)


def run_config(workload: Workload):
    """The program configuration the fleet call runs under."""
    from repro.core import AtmConfig
    from repro.prediction.spatial.signatures import ClusteringMethod

    if workload.kind == "ops":
        from repro.tickets.ops import AssignPolicy, OpsConfig, SlaPolicy

        # One responder queue with a 4-window service time, so incidents
        # queue behind each other and SLA breaches happen.
        return OpsConfig(
            assign=AssignPolicy(n_queues=1), sla=SlaPolicy(service_windows=4)
        )
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model=workload.temporal_model
    )


def run_fleet(workload: Workload, fleet, config):
    """One fleet call; returns the program's fleet result."""
    jobs = workload.resolved_jobs()
    if workload.kind == "atm":
        from repro.core import run_fleet_atm

        return run_fleet_atm(fleet, config, jobs=jobs)
    if workload.kind == "ops":
        from repro.tickets.ops import run_fleet_ops

        return run_fleet_ops(fleet, config, jobs=jobs)
    from repro.core.online import run_online_fleet

    return run_online_fleet(
        fleet, config, refit_every_steps=ONLINE_REFIT_CAP, jobs=jobs
    )


def _pct(before: int, after: int) -> float:
    return 100.0 * (before - after) / before if before else float("nan")


def summarize(
    workload: Workload, result, eligible: int, counters: Dict[str, float]
) -> dict:
    """Outcome of one fleet call: work counts, fidelity and result digest.

    ``done`` counts evaluated boxes, which must equal ``eligible``.  The
    failed operations are boxes that fell down the degradation ladder
    (``atm``, ``online``) or artifact writes that errored (``ops``).  The
    digest folds every per-box outcome with ``float.hex``, so equal
    digests mean bit-equal results.
    """
    h = hashlib.blake2b(digest_size=16)
    if workload.kind == "atm":
        from repro.resizing.evaluate import ResizingAlgorithm
        from repro.trace.model import Resource

        for acc in result.accuracies:
            h.update(acc.box_id.encode())
            for value in (acc.ape, acc.peak_ape, acc.signature_ratio):
                h.update(float(value).hex().encode())
        for red in result.reduction.results:
            h.update(
                f"{red.box_id}:{red.resource.value}:{red.algorithm.value}:"
                f"{red.tickets_before}:{red.tickets_after}:{red.feasible}".encode()
            )
        atm = ResizingAlgorithm.ATM
        return {
            "done": len(result.accuracies),
            "attempted": eligible,
            "failed": len(result.report.degraded_boxes),
            "fidelity": {
                "ape_pct": result.mean_ape(),
                "peak_ape_pct": result.mean_ape(peak=True),
                # Fig. 10: mean per-box reduction over boxes with tickets.
                "cpu_reduction_pct": result.mean_reduction(Resource.CPU, atm),
                "ram_reduction_pct": result.mean_reduction(Resource.RAM, atm),
            },
            "digest": h.hexdigest(),
        }
    if workload.kind == "online":
        from repro.trace.model import Resource

        totals = {Resource.CPU: [0, 0], Resource.RAM: [0, 0]}
        apes = []
        for box_id in sorted(result):
            run = result[box_id]
            h.update(box_id.encode())
            for step in run.steps:
                h.update(
                    f"{step.day_index}:{step.resource.value}:{step.rung}:"
                    f"{float(step.ape).hex()}:{step.tickets_static}:"
                    f"{step.tickets_atm}".encode()
                )
                h.update(step.allocation.tobytes())
                totals[step.resource][0] += step.tickets_static
                totals[step.resource][1] += step.tickets_atm
            apes.append(run.mean_ape())
        return {
            "done": len(result),
            "attempted": eligible,
            "failed": len(result.report.degraded_boxes),
            "fidelity": {
                "ape_pct": sum(apes) / len(apes) if apes else float("nan"),
                "cpu_reduction_pct": _pct(*totals[Resource.CPU]),
                "ram_reduction_pct": _pct(*totals[Resource.RAM]),
            },
            "digest": h.hexdigest(),
        }
    h.update(result.assignment_digest.encode())
    h.update(result.evidence_digest.encode())
    writes = store_counter(counters, ".writes")
    errors = store_counter(counters, ".write_errors")
    return {
        "done": result.boxes,
        "attempted": int(writes + errors),
        "failed": int(errors),
        "fidelity": {"sla_breach_pct": 100.0 * (result.breach_rate() or 0.0)},
        "digest": h.hexdigest(),
    }


def store_counter(counters: Dict[str, float], suffix: str) -> float:
    """Sum of the artifact store's per-stage ``store.<stage><suffix>`` counters."""
    return sum(
        value
        for name, value in counters.items()
        if name.startswith("store.") and name.endswith(suffix)
    )


def band_problems(workload: Workload, fidelity: Dict[str, float]) -> list:
    """Fidelity values outside the workload's declared bands."""
    problems = []
    for name, lo, hi in workload.bands:
        value = fidelity.get(name)
        if value is None or not math.isfinite(value) or not lo <= value <= hi:
            problems.append(f"{name}={value} outside [{lo}, {hi}]")
    return problems
