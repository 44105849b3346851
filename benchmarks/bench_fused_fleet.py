"""Cross-box fused training plane — end-to-end shard+run wall-clock.

Benchmarks the fleet-level fused temporal training plane (PR: fused
mega-batches + parallel shard generation) against the strictly per-box
baseline it replaces:

* **baseline** — strictly per-box stage execution (``_fused_eligible``
  patched to refuse fusion), serial shard generation, ``jobs=1``
  pipeline: the previous per-box execution model.
* **fused** — fused plane on, ``repro shard --jobs N`` parallel
  generation, ``jobs=N`` pipeline: chunk workers gather all their boxes'
  signature series into cross-box ``(ΣK, P)`` mega-batches and train them
  in single fused passes.

Both legs run the neural temporal model (the paper's signature
predictor, and the model the fused kernel accelerates) over a shard
store, and both fold their per-box accuracies and reductions into a
result digest — the fused fits are **bit-identical** to per-box fits, so
the digests must match exactly; the benchmark fails loudly if they
drift.

The speedup bar adapts to the host honestly: with two or more effective
CPUs the fused leg must be ≥ ``TARGET_SPEEDUP``× (2×) faster end-to-end;
on a single-core host (where parallel fan-out cannot help) the fused
kernel and the vectorized shard generator alone must still clear
``SINGLE_CORE_FLOOR``×, and the report records the core count so the
recorded ratio is never mistaken for a parallel measurement.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_fused_fleet.py [--boxes 6000]
        [--jobs 4] [--quick] [--out BENCH_fused.json]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

BENCH_SCHEMA = "repro.bench_fused/v1"
DEFAULT_BOXES = 6000
DEFAULT_JOBS = 4
QUICK_BOXES = 32
DAYS = 6  # 5 training days + 1 evaluation day, the Fig. 9/10 setup

#: End-to-end bar when the host grants >= 2 effective CPUs: fused plane +
#: parallel generation must at least halve the shard+run wall-clock.
TARGET_SPEEDUP = 2.0
#: Floor on a single-core host: no parallelism to harvest, but the fused
#: mega-batch kernel and the vectorized AR(1) generator must still win.
SINGLE_CORE_FLOOR = 1.05


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _result_digest(result) -> str:
    """Digest of every per-box outcome, exact to the last float bit.

    Folds each box's accuracy triple (downstream of every fused weight)
    and every ticket reduction, using ``float.hex`` so equal digests mean
    bit-equal results, not round-tripped approximations.
    """
    import hashlib

    h = hashlib.blake2b()
    for acc in result.accuracies:
        h.update(acc.box_id.encode())
        for value in (acc.ape, acc.peak_ape, acc.signature_ratio):
            h.update(float(value).hex().encode())
    for red in result.reduction.results:
        h.update(
            f"{red.box_id}:{red.resource.value}:{red.algorithm.value}:"
            f"{red.tickets_before}:{red.tickets_after}:{red.feasible}".encode()
        )
    return h.hexdigest()


def _run_leg(mode: str, n_boxes: int, jobs: int, seed: int = 20160628) -> dict:
    """Child body: one end-to-end leg (shard generation + fleet run)."""
    from repro import obs
    from repro.core import AtmConfig, pipeline, run_fleet_atm
    from repro.prediction.spatial.signatures import ClusteringMethod
    from repro.store.shards import ShardedFleet, generate_fleet_shards
    from repro.trace.generator import FleetConfig
    from repro.trace.model import FORBID_GENERATION_ENV_VAR

    fused = mode == "fused"
    if not fused:
        # The per-box path every model without a fleet fitter takes.
        pipeline._fused_eligible = lambda config: False
    leg_jobs = jobs if fused else 1

    obs.reset_metrics()
    with tempfile.TemporaryDirectory(prefix=f"bench-fused-{mode}-") as tmp:
        t0 = time.perf_counter()
        manifest = generate_fleet_shards(
            FleetConfig(n_boxes=n_boxes, days=DAYS, seed=seed), tmp, jobs=leg_jobs
        )
        shard_s = time.perf_counter() - t0

        # From here on, materializing the whole fleet is a bug, not a cost.
        os.environ[FORBID_GENERATION_ENV_VAR] = "1"
        config = AtmConfig.with_clustering(
            ClusteringMethod.CBC, temporal_model="neural"
        )
        t0 = time.perf_counter()
        result = run_fleet_atm(ShardedFleet(tmp), config, jobs=leg_jobs)
        run_s = time.perf_counter() - t0

        obs.record_peak_rss()
        snap = obs.metrics_snapshot()
        return {
            "mode": mode,
            "scenario": "paper-fig2",
            "jobs": leg_jobs,
            "boxes": n_boxes,
            "vms": manifest.n_vms,
            "shard_s": round(shard_s, 3),
            "run_s": round(run_s, 3),
            "total_s": round(shard_s + run_s, 3),
            "boxes_evaluated": len(result.accuracies),
            "digest": _result_digest(result),
            "peak_rss_bytes": int(snap["gauges"]["proc.peak_rss_bytes"]),
            "fused_groups": int(snap["counters"].get("fused.groups", 0)),
            "fused_models_per_pass": int(
                snap["gauges"].get("fused.models_per_pass", 0)
            ),
            "fused_fallback_boxes": int(
                snap["counters"].get("fused.fallback_boxes", 0)
            ),
        }


def _spawn_leg(mode: str, n_boxes: int, jobs: int) -> dict:
    """Run one leg in a fresh subprocess (clean RSS + clean env) and collect it."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as handle:
        out_path = handle.name
    try:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--child", mode, "--boxes", str(n_boxes), "--jobs", str(jobs),
            "--out", out_path,
        ]
        subprocess.run(cmd, check=True, env=env)
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        try:
            os.unlink(out_path)
        except OSError:
            pass


def compare(n_boxes: int, jobs: int) -> dict:
    """Run both legs in subprocess isolation and assemble the report."""
    cpus = _effective_cpus()
    effective_jobs = max(1, min(jobs, cpus))
    baseline = _spawn_leg("baseline", n_boxes, 1)
    fused = _spawn_leg("fused", n_boxes, effective_jobs)
    speedup = baseline["total_s"] / max(1e-9, fused["total_s"])
    bar = TARGET_SPEEDUP if cpus >= 2 else SINGLE_CORE_FLOOR
    return {
        "schema": BENCH_SCHEMA,
        "boxes": n_boxes,
        "days": DAYS,
        "requested_jobs": jobs,
        "effective_jobs": effective_jobs,
        "host_cpus": cpus,
        "legs": [baseline, fused],
        "speedup": round(speedup, 3),
        "speedup_bar": bar,
        "bit_identical": baseline["digest"] == fused["digest"],
        "note": (
            "parallel measurement"
            if cpus >= 2
            else "single-core host: fan-out cannot help; ratio reflects the "
            "fused kernel + vectorized generation alone"
        ),
    }


def _print_report(report: dict) -> None:
    from repro.benchhelpers import print_table

    print_table(
        f"Fused fleet plane — {report['boxes']} boxes, "
        f"jobs={report['effective_jobs']} ({report['host_cpus']} CPUs)",
        ["leg", "jobs", "shard s", "run s", "total s", "groups", "fallbacks"],
        [
            [
                row["mode"],
                row["jobs"],
                row["shard_s"],
                row["run_s"],
                row["total_s"],
                row["fused_groups"],
                row["fused_fallback_boxes"],
            ]
            for row in report["legs"]
        ],
    )
    print(
        f"end-to-end speedup: {report['speedup']}x (bar {report['speedup_bar']}x) "
        f"— bit-identical: {report['bit_identical']} — {report['note']}"
    )


def _check(report: dict, require_speedup: bool = True) -> None:
    baseline, fused = report["legs"]
    assert report["bit_identical"], (
        f"fused results diverged from the per-box baseline: "
        f"{baseline['digest']} != {fused['digest']}"
    )
    assert fused["boxes_evaluated"] == report["boxes"]
    assert fused["fused_fallback_boxes"] == 0, (
        f"{fused['fused_fallback_boxes']} boxes fell back to the per-box "
        "path on a clean run — fusion is not covering the fleet"
    )
    assert fused["fused_groups"] > 0, "fused plane never engaged"
    if require_speedup:
        assert report["speedup"] >= report["speedup_bar"], (
            f"fused end-to-end speedup {report['speedup']}x is below the "
            f"{report['speedup_bar']}x bar for this host "
            f"({report['host_cpus']} CPUs; rows: {report['legs']})"
        )


# --------------------------------------------------------------------- pytest
def test_fused_fleet_speedup(tmp_path):
    """Reduced-scale compare; the full sweep is the script's default."""
    report = compare(200, DEFAULT_JOBS)
    (tmp_path / "BENCH_fused.json").write_text(json.dumps(report, indent=1))
    _print_report(report)
    _check(report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--boxes", type=int, default=DEFAULT_BOXES,
        help="fleet size for both legs (paper scale = 6000)",
    )
    parser.add_argument(
        "--jobs", type=int, default=DEFAULT_JOBS,
        help="worker processes for the fused leg (capped at host CPUs; "
        "the baseline leg is always serial)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"{QUICK_BOXES}-box smoke: asserts bit-identity and fused "
        "coverage but not the speedup bar (timing noise dominates)",
    )
    parser.add_argument(
        "--out", type=str, default="BENCH_fused.json",
        help="write the JSON report here",
    )
    parser.add_argument("--child", type=str, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        payload = _run_leg(args.child, args.boxes, args.jobs)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return 0

    boxes = QUICK_BOXES if args.quick else args.boxes
    report = compare(boxes, args.jobs)
    if args.quick:
        report["quick"] = True
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    _print_report(report)
    print(f"wrote {args.out}")
    _check(report, require_speedup=not args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
