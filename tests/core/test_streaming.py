"""The fleet kernel: serial/parallel and sharded/in-RAM identity, spans.

Every fleet entry point runs through :func:`repro.core.streaming.run_fleet`.
The acceptance bar: a ``jobs=2`` run reproduces the serial run bit for
bit — per-box accuracies, ticket counts, fleet means and degradation
reports — including on fleets where injected faults drive boxes down the
degradation ladder; a shard-backed fleet reproduces the in-RAM fleet
while workers receive only descriptors; and each call records exactly
one ``*.fleet`` span.
"""

import math

import pytest

from repro import obs
from repro.benchhelpers.scaling import fingerprint_result
from repro.core.config import AtmConfig
from repro.core.online import run_online_fleet
from repro.core.pipeline import run_fleet_atm
from repro.core.streaming import TicketHistogram
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import evaluate_fleet_resizing
from repro.store.shards import write_fleet_shards, load_fleet_shards
from repro.tickets.ops import run_fleet_ops
from repro.tickets.policy import TicketPolicy
from repro.trace import model
from repro.trace.generator import FleetConfig, generate_fleet
from repro.trace.model import FORBID_GENERATION_ENV_VAR


@pytest.fixture(autouse=True)
def _fresh_shard_tier():
    model._SHARD_TIER_ACTIVE = False
    yield
    model._SHARD_TIER_ACTIVE = False


@pytest.fixture()
def atm_config():
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC, temporal_model="seasonal_mean"
    )


class TestStreamingEquivalence:
    """Serial fold == parallel fold, bit for bit, under the same faults."""

    def test_atm_identical_on_degraded_fleet(
        self, pipeline_fleet_6d, atm_config, monkeypatch
    ):
        # Inject primary-fit faults so boxes actually climb the ladder:
        # equivalence must hold for reports too, not just happy paths.
        monkeypatch.setenv("REPRO_FAULTS", "fit_error:p=0.5")
        serial = run_fleet_atm(pipeline_fleet_6d, atm_config, jobs=1)
        parallel = run_fleet_atm(pipeline_fleet_6d, atm_config, jobs=2, chunksize=1)
        assert fingerprint_result(parallel) == fingerprint_result(serial)
        assert parallel.report == serial.report
        assert not serial.report.ok  # the faults really fired

    def test_resize_identical_on_faulty_fleet(self, small_fleet, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "box_error:p=0.4")
        policy = TicketPolicy(60.0)
        serial = evaluate_fleet_resizing(small_fleet, policy, eval_windows=96, jobs=1)
        parallel = evaluate_fleet_resizing(
            small_fleet, policy, eval_windows=96, jobs=2
        )
        assert parallel.results == serial.results
        assert parallel.report == serial.report
        assert not serial.report.ok
        assert parallel.histogram.as_dict() == serial.histogram.as_dict()

    def test_serial_streaming_matches_parallel(self, pipeline_fleet_6d, atm_config):
        serial = run_fleet_atm(pipeline_fleet_6d, atm_config, jobs=1)
        parallel = run_fleet_atm(pipeline_fleet_6d, atm_config, jobs=3, chunksize=1)
        assert fingerprint_result(serial) == fingerprint_result(parallel)


def _resize_digest(result):
    return result.results, result.report, result.histogram.as_dict()


def _online_digest(result):
    boxes = {
        box_id: tuple(
            (
                s.day_index,
                s.resource.value,
                float(s.ape).hex(),
                s.tickets_static,
                s.tickets_atm,
                s.allocation.tobytes(),
                s.rung,
            )
            for s in run.steps
        )
        for box_id, run in result.items()
    }
    return boxes, result.report


def _ops_digest(result):
    return (
        result.boxes,
        result.tickets,
        result.incidents,
        result.assignment_digest,
        result.evidence_digest,
    )


_SEASONAL = AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="seasonal_mean")
_POLICY = TicketPolicy(60.0)

#: name -> (call(fleet, jobs), digest, the call's fleet span)
ENTRY_POINTS = {
    "atm": (
        lambda fleet, jobs: run_fleet_atm(fleet, _SEASONAL, jobs=jobs),
        fingerprint_result,
        "pipeline.fleet",
    ),
    "resize": (
        lambda fleet, jobs: evaluate_fleet_resizing(
            fleet, _POLICY, eval_windows=96, jobs=jobs
        ),
        _resize_digest,
        "resize.fleet",
    ),
    "online": (
        lambda fleet, jobs: run_online_fleet(fleet, _SEASONAL, jobs=jobs),
        _online_digest,
        "online.fleet",
    ),
    "ops": (
        lambda fleet, jobs: run_fleet_ops(fleet, jobs=jobs),
        _ops_digest,
        "ops.fleet",
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_fleet_kernel_entry_point(entry, tmp_path, pipeline_fleet_6d):
    """Each entry point: serial == jobs=2, sharded == in-RAM, one fleet span."""
    call, digest, span = ENTRY_POINTS[entry]
    write_fleet_shards(pipeline_fleet_6d, tmp_path)
    sharded = load_fleet_shards(tmp_path)
    digests = []
    for fleet, jobs in ((pipeline_fleet_6d, 1), (pipeline_fleet_6d, 2), (sharded, 1)):
        obs.reset_metrics()
        digests.append(digest(call(fleet, jobs)))
        spans = obs.metrics_snapshot()["spans"]
        fleet_spans = {
            name: stat["count"] for name, stat in spans.items() if name.endswith(".fleet")
        }
        assert fleet_spans == {span: 1}
    serial, parallel, via_shards = digests
    assert parallel == serial
    assert via_shards == serial


class TestFaultSpec:
    """A malformed ``REPRO_FAULTS`` fails the call, not every box."""

    def test_atm_rejects_malformed_spec(
        self, pipeline_fleet_6d, atm_config, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "fit_error:p=1.0:once")
        obs.reset_metrics()
        with pytest.raises(ValueError):
            run_fleet_atm(pipeline_fleet_6d, atm_config)
        assert "pipeline.boxes" not in obs.metrics_snapshot()["counters"]

    def test_online_rejects_malformed_spec(self, atm_config, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "box_error:p=1.0:once")
        fleet = generate_fleet(FleetConfig(n_boxes=2, days=7, seed=62))
        obs.reset_metrics()
        with pytest.raises(ValueError):
            run_online_fleet(fleet, atm_config)
        assert "online.boxes" not in obs.metrics_snapshot()["counters"]


class TestShardedDispatch:
    """Shard-backed fleets: descriptor dispatch, identical numbers."""

    def test_atm_sharded_matches_in_ram(
        self, tmp_path, pipeline_fleet_6d, atm_config
    ):
        write_fleet_shards(pipeline_fleet_6d, tmp_path)
        sharded = load_fleet_shards(tmp_path)
        reference = run_fleet_atm(pipeline_fleet_6d, atm_config, jobs=1)
        via_shards = run_fleet_atm(sharded, atm_config, jobs=1)
        assert fingerprint_result(via_shards) == fingerprint_result(reference)

    def test_resize_sharded_matches_in_ram(self, tmp_path, small_fleet):
        write_fleet_shards(small_fleet, tmp_path)
        sharded = load_fleet_shards(tmp_path)
        policy = TicketPolicy(60.0)
        reference = evaluate_fleet_resizing(small_fleet, policy, eval_windows=96)
        via_shards = evaluate_fleet_resizing(sharded, policy, eval_windows=96)
        assert via_shards.results == reference.results

    def test_parallel_sharded_run_with_materialization_forbidden(
        self, tmp_path, pipeline_fleet_6d, atm_config, monkeypatch
    ):
        # The regression the guard satellite pins down: with the shard tier
        # active and the guard set, a parallel run must complete — workers
        # map per-box views and never build a FleetTrace.  (Forked workers
        # inherit both the env var and the active-tier flag.)
        write_fleet_shards(pipeline_fleet_6d, tmp_path)
        sharded = load_fleet_shards(tmp_path)
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        result = run_fleet_atm(sharded, atm_config, jobs=2, chunksize=1)
        assert len(result.accuracies) == pipeline_fleet_6d.n_boxes
        # The *parent* never opened a shard (only workers did), so its own
        # tier flag is still clear; materialize() marks it before loading
        # and therefore trips the guard.
        assert not model.shard_tier_active()
        with pytest.raises(RuntimeError, match="materialization is forbidden"):
            sharded.materialize()

    def test_eligibility_from_manifest(self, tmp_path, small_fleet, atm_config):
        # A one-day fleet is too short for the 6-day ATM setup; the sharded
        # path must reject it from the manifest alone, like the in-RAM path,
        # and an empty fleet is an error whatever the degradation policy.
        write_fleet_shards(small_fleet, tmp_path)
        for degrade in (True, False):
            with pytest.raises(ValueError, match="windows required"):
                run_fleet_atm(load_fleet_shards(tmp_path), atm_config, degrade=degrade)


class TestTicketHistogram:
    def test_counts_and_mean(self):
        hist = TicketHistogram(width=5.0)
        values = (-100.0, -1.0, 0.0, 4.999, 5.0, 100.0)
        for value in values:
            hist.add(value)
        assert hist.total == 6
        assert hist.nan_count == 0
        assert sum(hist.counts) == 6
        assert hist.counts[0] == 1          # -100 lands in the first bin
        assert hist.counts[-1] == 1         # 100 clamps into the last bin
        assert hist.mean() == pytest.approx(sum(values) / 6)

    def test_nan_tallied_separately(self):
        hist = TicketHistogram()
        hist.add(float("nan"))
        hist.add(50.0)
        assert hist.total == 2
        assert hist.nan_count == 1
        assert hist.finite_count == 1
        assert hist.mean() == 50.0

    def test_empty_mean_is_nan(self):
        assert math.isnan(TicketHistogram().mean())

    def test_as_dict_shape(self):
        hist = TicketHistogram(width=10.0)
        hist.add(-5.0)
        data = hist.as_dict()
        assert len(data["edges"]) == len(data["counts"]) + 1
        assert data["edges"][0] == -100.0
        assert data["edges"][-1] == 100.0
        assert data["total"] == 1

    def test_invalid_width(self):
        with pytest.raises(ValueError, match="width"):
            TicketHistogram(width=0.0)

    def test_fleet_reduction_folds_histogram(self, small_fleet):
        policy = TicketPolicy(60.0)
        summary = evaluate_fleet_resizing(small_fleet, policy, eval_windows=96)
        assert summary.histogram.total == len(summary.results)
