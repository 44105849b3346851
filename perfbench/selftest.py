"""Quick self-test of the benchmark at tiny fleet sizes (a few minutes).

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` untraced and traced on a 3-box
fleet and checks that the result line has exactly the agreed keys, that
every metric ``BENCHMARK.json`` names is emitted with its unit, that the
run is correct, and that the traced sample's digest equals the untraced
run's digest of the same fleet.  It also checks that a directory holding
only the benchmark (no ``src/``) makes ``run.py`` fail without a result.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(workload: str, trace: int) -> "tuple[dict, dict]":
    proc = _run(
        ROOT,
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "1",
        "--trace", str(trace),
        "--boxes", "3",
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return json.loads(lines[-1]), record


def check_workload(workload: str, spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, record = _result(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True, record["problems"]
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == expected, f"{workload} trace={trace}: {emitted} != {expected}"
        if trace == 0:
            untraced = record["digests"][0]
        else:
            assert record["digests"] == [untraced, untraced], (record["digests"], untraced)
    print(f"ok  {workload}")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail, not report."""
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, "--workload", "paper-seasonal", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "run.py succeeded without src/"
        assert not proc.stdout.strip(), f"run.py printed a result without src/: {proc.stdout}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory fails")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
