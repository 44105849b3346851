"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-seasonal [--seed N]
        [--seconds S] [--trace 0|1] [--boxes N]

A run imports the program once, then forks one fresh process per sample.
Each sample renders a fleet of its own, seeded from ``--seed``, into a
fresh shard store, opens it and runs the fleet call.  Samples repeat
until ``--seconds`` have been spent on them, and at least three times.
``setup_s`` is the median render + open, ``boxes_per_s`` all boxes over
all fleet-call seconds, both in reference seconds (wall seconds times
the host speed probed over them, see ``hostspeed.py``), and
``peak_rss_mb`` the median over fleet calls.
Every sample is checked: all eligible boxes evaluated, no failed
operation, no reuse of earlier work, fidelity inside the workload's
bands, and the same result digest as any earlier run of the same fleet.

``--trace 1`` runs one untraced and one traced sample of the same fleet
instead and reports the per-layer breakdown of the traced one; its digest
must equal the untraced one's.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Result digests of earlier runs in this checkout (see ``check_ledger``).
LEDGER = ROOT / ".perfbench" / "digests.json"

#: One BLAS/OpenMP thread per process, so ``jobs=2`` does not
#: oversubscribe two cores.  Set before numpy is first imported.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_SAMPLES = 3
#: A run must end within 180 s: no sample starts after ``LAST_START_S``,
#: and a sample still running at ``HARD_LIMIT_S`` is killed.
LAST_START_S = 90.0
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "boxes_per_s": "1/s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "trace.render_s": "s",
    "trace.shard_mb": "MB",
    "store.open_s": "s",
    "store.open_pct": "%",
    "store.opened": "count",
    "store.mapped_mb": "MB",
    "spatial.search_s": "s",
    "spatial.search_pct": "%",
    "spatial.searches": "count",
    "spatial.signature_pct": "%",
    "temporal.fit_s": "s",
    "temporal.fit_pct": "%",
    "temporal.fit_calls": "count",
    "temporal.models": "count",
    "temporal.warm_models": "count",
    "temporal.cold_refits": "count",
    "forecast.predict_s": "s",
    "forecast.predict_pct": "%",
    "resize.solve_s": "s",
    "resize.solve_pct": "%",
    "resize.evaluate_s": "s",
    "resize.evaluate_pct": "%",
    "resize.infeasible": "count",
    "tickets.monitor_s": "s",
    "tickets.monitor_pct": "%",
    "tickets.group_s": "s",
    "tickets.group_pct": "%",
    "tickets.route_s": "s",
    "tickets.route_pct": "%",
    "tickets.tickets": "count",
    "tickets.incidents": "count",
    "evidence.build_s": "s",
    "evidence.build_pct": "%",
    "store.put_s": "s",
    "store.put_pct": "%",
    "store.get_s": "s",
    "store.get_pct": "%",
    "store.writes": "count",
    "store.written_mb": "MB",
    "online.steps": "count",
    "online.drift_searches": "count",
    "online.drift_skips": "count",
    "core.fleet_wall_s": "s",
    "core.unaccounted_s": "s",
    "core.unaccounted_pct": "%",
    "core.trace_overhead_pct": "%",
}


class BenchError(Exception):
    """A sample failed or timed out: the run has no result."""


def _sample_main(writer, args: tuple) -> None:
    """Body of a forked sample: its own process group, result down the pipe."""
    import sample

    os.setpgid(0, 0)  # the group holds the sample's pool workers too
    try:
        writer.send(("ok", sample.run_sample(*args)))
    except Exception:
        writer.send(("error", traceback.format_exc()))
    finally:
        writer.close()


class Run:
    """One benchmark run: its work directory, clock and forked samples."""

    def __init__(self, workload, seed: int, boxes: int) -> None:
        self.workload = workload
        self.seed = seed
        self.boxes = boxes
        self.work = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.started = time.monotonic()
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def sample(self, index: int, traced: bool, probed: bool) -> dict:
        """Fork a fresh process for sample ``index`` and collect its result.

        The parent has only imported the program and started no thread,
        so forking it is safe, and the sample starts without any state a
        previous fleet call left behind.
        """
        work = self.work / f"sample-{self.count}"
        self.count += 1
        work.mkdir(parents=True)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        fleet_seed = workloads.fleet_seed(self.seed, index)
        args = (self.workload, fleet_seed, self.boxes, work, traced, probed)
        proc = ctx.Process(target=_sample_main, args=(writer, args))
        proc.start()
        writer.close()
        try:
            if not reader.poll(max(1.0, HARD_LIMIT_S - self.elapsed())):
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    proc.kill()
                raise BenchError("sample timed out")
            status, payload = reader.recv()
        except EOFError:
            raise BenchError("sample died without a result") from None
        finally:
            proc.join()
            reader.close()
            # Delete the sample's stores and wait for the disk, so the
            # next sample's file writes do not queue behind the deletion.
            shutil.rmtree(work, ignore_errors=True)
            os.sync()
        if status != "ok":
            raise BenchError(f"sample failed:\n{payload}")
        return payload


def _git_rev():
    if not (ROOT / ".git").exists():
        return None
    import subprocess

    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def _src_fingerprint() -> str:
    """Content hash of the program's sources (a checkout may have no git)."""
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(run: Run) -> dict:
    """What two records must share to be compared."""
    from dataclasses import asdict

    import numpy as np

    from repro.core import runtime
    from repro.store import config_fingerprint

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    w = run.workload
    return {
        "workload": w.name,
        "seed": run.seed,
        "boxes": run.boxes,
        "days": w.days,
        "jobs": w.resolved_jobs(),
        "scenario": w.scenario,
        "scenario_fp": workloads.scenario_spec(w).fingerprint(),
        "config_fp": config_fingerprint(workloads.run_config(w)),
        "gates": asdict(runtime.settings()),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_rev": _git_rev(),
        "src_fp": _src_fingerprint(),
    }


def check_samples(workload, samples: list, banded: bool) -> list:
    """Every output check over a run's samples; returns the problems.

    Fidelity bands hold the median over the run's fleets and are declared
    for the workload's own fleet size, so ``banded`` is off when
    ``--boxes`` overrides it.
    """
    problems = []
    for i, s in enumerate(samples):
        if s["done"] != s["eligible"] or s["eligible"] == 0:
            problems.append(f"sample {i}: {s['done']} of {s['eligible']} eligible boxes evaluated")
        if s["failed"]:
            problems.append(f"sample {i}: {s['failed']} of {s['attempted']} operations failed")
        for name, value in s["reuse"].items():
            if value:
                problems.append(f"sample {i}: reuse counter {name}={value}")
    if banded:
        problems += workloads.band_problems(workload, fidelity(samples))
    return problems


def fidelity(samples: list) -> dict:
    """Median over the samples' fleets of each fidelity metric."""
    return {
        name: statistics.median(s["fidelity"][name] for s in samples)
        for name in samples[0]["fidelity"]
    }


def check_ledger(manifest: dict, samples: list) -> list:
    """Compare each sample's digest with every earlier run of the same fleet.

    The ledger lives in the checkout, keyed by program sources, workload,
    fleet size and fleet seed, so any two runs that rendered the same
    fleet from the same code, traced or not, must agree bit for bit.
    """
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    problems = []
    for s in samples:
        key = f"{manifest['src_fp']}:{manifest['workload']}:{manifest['boxes']}:{s['fleet_seed']}"
        seen = ledger.setdefault(key, s["digest"])
        if seen != s["digest"]:
            problems.append(f"fleet {s['fleet_seed']}: digest {s['digest']}, earlier {seen}")
    tmp = LEDGER.with_suffix(f".{os.getpid()}")
    tmp.write_text(json.dumps(ledger, indent=0, sort_keys=True))
    os.replace(tmp, LEDGER)
    return problems


def measure(run: Run, seconds: float, traced: bool) -> dict:
    if traced:
        # Neither is probed, so the two fleet-call walls compare.
        samples = [
            run.sample(0, traced=False, probed=False),
            run.sample(0, traced=True, probed=False),
        ]
    else:
        samples = []
        phase = time.monotonic()
        while True:
            samples.append(run.sample(len(samples), traced=False, probed=True))
            spent = time.monotonic() - phase
            if len(samples) >= MIN_SAMPLES and spent * (1 + 1 / len(samples)) > seconds:
                break  # the next sample would overrun --seconds
            if run.elapsed() > LAST_START_S:
                break
    # End-to-end numbers come from untraced samples only; a traced run
    # probes none, so its times stay in wall seconds.
    plain = samples[:1] if traced else samples
    setup, fleet = ("setup_wall_s", "wall_s") if traced else ("setup_s", "fleet_s")
    e2e = {
        "setup_s": statistics.median(t for s in plain for t in s[setup]),
        "boxes_per_s": sum(s["done"] for s in plain) / sum(s[fleet] for s in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain),
    }
    wall = {
        "setup_wall_s": statistics.median(t for s in plain for t in s["setup_wall_s"]),
        "wall_boxes_per_s": sum(s["done"] for s in plain) / sum(s["wall_s"] for s in plain),
    }
    layers = {}
    problems = check_samples(run.workload, samples, banded=run.boxes == run.workload.boxes)
    if traced:
        if samples[0]["digest"] != samples[1]["digest"]:
            problems.append("traced digest differs from the untraced one")
        layers = dict(samples[1]["layers"])
        layers["core.trace_overhead_pct"] = 100.0 * (
            samples[1]["wall_s"] / samples[0]["wall_s"] - 1.0
        )
    return {
        "samples": samples,
        "n": len(plain),
        "per_sample": {
            "setup_s": [t for s in plain for t in s[setup]],
            "setup_wall_s": [t for s in plain for t in s["setup_wall_s"]],
            "boxes_per_s": [s["done"] / s[fleet] for s in plain],
            "wall_boxes_per_s": [s["done"] / s["wall_s"] for s in plain],
            "speed": [s["speed"] for s in plain],
            "cpu_user_s": [s["cpu_user_s"] for s in plain],
            "cpu_sys_s": [s["cpu_sys_s"] for s in plain],
            "fidelity": [s["fidelity"] for s in samples],
        },
        "end_to_end": e2e,
        "wall": wall,
        "layers": layers,
        "problems": problems,
    }


def report(record: dict, traced: bool) -> dict:
    """Print the human table and the record line; return the result object."""
    m = record["manifest"]
    samples = record["samples"]
    n = record["n"]
    print(
        f"perfbench {m['workload']}  seed={m['seed']}  boxes={m['boxes']}  "
        f"jobs={m['jobs']}  nproc={m['nproc']}  digest={samples[0]['digest']}"
    )
    seconds = "wall s, not probed" if traced else "reference s"
    how = {
        "setup_s": (len(record["per_sample"]["setup_s"]), f"median of renders, {seconds}"),
        "boxes_per_s": (n, f"all boxes / all fleet-call {seconds}"),
        "peak_rss_mb": (n, "median of fleet calls"),
    }
    for name, value in record["end_to_end"].items():
        count, label = how[name]
        print(f"  {name:<24} {value:>12.4f} {END_TO_END_UNITS[name]:<6} n={count} ({label})")
    for name, value in record["wall"].items():
        unit = "s" if name.startswith("setup") else "1/s"
        print(f"  {name:<24} {value:>12.4f} {unit:<6} n={n} (wall clock, not gated)")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    print(f"  {'failed_pct':<24} {100.0 * failed / max(1, attempted):>12.4f} {'%':<6} n={attempted}")
    for name, value in fidelity(samples).items():
        print(f"  {name:<24} {value:>12.4f} {'%':<6} n={len(samples)} (median over fleets)")
    for name, value in record["layers"].items():
        print(f"  {name:<24} {value:>12.4f} {LAYER_UNITS[name]}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    kept = ("manifest", "end_to_end", "wall", "per_sample", "layers", "problems")
    digests = [s["digest"] for s in samples]
    print("record " + json.dumps(dict({k: record[k] for k in kept}, samples=n, digests=digests)))
    if traced:
        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {
            k: {"value": record["end_to_end"][k], "unit": u} for k, u in END_TO_END_UNITS.items()
        }
    return {
        "correct": not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--boxes", type=int, default=None, help="override the fleet size")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # Samples of the ops workload set their own REPRO_STORE; every other
    # gate stays at its default.
    stray = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if stray:
        print(f"perfbench: REPRO_* gates must be at their defaults; set: {stray}", file=sys.stderr)
        return 2
    import sample  # noqa: F401  (the program is imported once, before any fork)

    run = Run(workload, args.seed, args.boxes or workload.boxes)
    try:
        record = measure(run, args.seconds, traced=bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record["manifest"] = manifest(run)
    record["problems"] += check_ledger(record["manifest"], record["samples"])
    print(json.dumps(report(record, traced=bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
