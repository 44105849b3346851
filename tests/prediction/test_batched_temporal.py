"""Batched-vs-serial equivalence for the MLP training kernel.

The batched trainer (:mod:`repro.prediction.temporal.batched`) claims
*bit-identical* results to the one-model serial training loop kept in
:mod:`tests.prediction.serial_mlp` — not a tolerance, equality.  These
tests pin that claim across seeds, box shapes, history lengths and the
early-stopping edge cases, for production ``NeuralNetPredictor.fit`` (the
kernel's K=1 case) and through the combined predictor.
"""

import numpy as np
import pytest

from repro import obs
from repro.prediction.combined import SpatialTemporalConfig, SpatialTemporalPredictor
from repro.prediction.registry import fit_temporal_batch, has_batch_fitter
from repro.prediction.spatial.signatures import ClusteringMethod, SignatureSearchConfig
from repro.prediction.temporal.batched import fit_equal_length_state, fit_neural_batch
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor
from tests.prediction.serial_mlp import SerialNeuralNetPredictor

# A small config keeps every fit fast; bit-equivalence is config-agnostic.
FAST = MlpConfig(hidden_layers=(8, 4), period=24, max_epochs=40, patience=5)


def make_histories(k, size, seed, period=24):
    """K diurnal series with heterogeneous noise (so convergence differs)."""
    rng = np.random.default_rng(seed)
    t = np.arange(size)
    out = []
    for _ in range(k):
        base = 40 + 25 * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
        trend = rng.uniform(-0.02, 0.02) * t
        noise = rng.normal(0, rng.uniform(0.5, 4.0), size)
        out.append(np.maximum(base + trend + noise, 0.0))
    return out


def serial_fits(histories, cfg=FAST):
    return [SerialNeuralNetPredictor(cfg).fit(h) for h in histories]


def assert_equivalent(serial, batched, horizon=24):
    assert len(serial) == len(batched)
    for s, b in zip(serial, batched):
        assert s._fit_epochs == b._fit_epochs
        np.testing.assert_array_equal(s.predict(horizon), b.predict(horizon))


class TestEquivalence:
    @pytest.mark.parametrize(
        "k,size,seed",
        [
            (2, 24 * 4, 0),
            (3, 24 * 5, 1),
            (5, 24 * 6, 2),
            (8, 24 * 4 + 7, 3),  # length not a multiple of the period
            (4, 24 * 3, 4),
        ],
    )
    def test_bit_identical_forecasts(self, k, size, seed):
        histories = make_histories(k, size, seed)
        batched = fit_neural_batch(histories, FAST)
        assert_equivalent(serial_fits(histories), batched)

    def test_models_stop_at_different_epochs(self):
        # The per-model convergence mask is only exercised when models
        # actually stop at different epochs — pin a case where they do.
        histories = make_histories(6, 24 * 6, seed=11)
        serial = serial_fits(histories)
        epochs = {m._fit_epochs for m in serial}
        assert len(epochs) > 1, "fixture must trigger divergent early stopping"
        assert_equivalent(serial, fit_neural_batch(histories, FAST))

    def test_k1_routes_to_serial(self):
        # A one-history batch trains in the kernel like any other width.
        (history,) = make_histories(1, 24 * 5, seed=5)
        (batched,) = fit_neural_batch([history], FAST)
        (serial,) = serial_fits([history])
        assert_equivalent([serial], [batched])

    def test_k1_degenerate_batch_kernel(self):
        # Call the tensor kernel directly with a width-1 stack: the 3-D ops
        # must agree with the serial loop.
        (history,) = make_histories(1, 24 * 5, seed=6)
        ((batched,), _) = fit_equal_length_state(history[None, :], FAST)
        (serial,) = serial_fits([history])
        assert_equivalent([serial], [batched])

    def test_mixed_history_lengths_grouped(self):
        short = make_histories(2, 24 * 4, seed=7)
        long = make_histories(3, 24 * 6, seed=8)
        histories = [short[0], long[0], short[1], long[1], long[2]]
        batched = fit_neural_batch(histories, FAST)
        assert_equivalent(serial_fits(histories), batched)

    def test_default_config(self):
        # The exact production config (period=96, deeper net).
        cfg = MlpConfig(max_epochs=12)
        histories = make_histories(3, 96 * 3, seed=9, period=96)
        serial = serial_fits(histories, cfg)
        batched = fit_neural_batch(histories, cfg)
        assert_equivalent(serial, batched, horizon=96)


class TestProductionFit:
    """``NeuralNetPredictor.fit`` is the kernel's K=1 case: equal to the oracle."""

    @pytest.mark.parametrize(
        "cfg,size,period",
        [
            (FAST, 24 * 5 + 3, 24),
            # The default config the ATM pipeline trains (period=96).
            (MlpConfig(), 96 * 5, 96),
        ],
        ids=["fast-period24", "default-period96"],
    )
    def test_fit_bit_identical_to_oracle(self, cfg, size, period):
        (history,) = make_histories(1, size, seed=12, period=period)
        production = NeuralNetPredictor(cfg).fit(history)
        oracle = SerialNeuralNetPredictor(cfg).fit(history)
        assert type(production) is NeuralNetPredictor
        assert_equivalent([oracle], [production], horizon=period)

    def test_fit_counts_one_model(self):
        (history,) = make_histories(1, 24 * 5, seed=13)
        obs.reset_metrics()
        model = NeuralNetPredictor(FAST).fit(history)
        counters = obs.metrics_snapshot()["counters"]
        assert counters["mlp.models"] == 1
        assert counters["mlp.model_epochs"] == model._fit_epochs


class TestRegistry:
    def test_neural_has_batch_fitter(self):
        assert has_batch_fitter("neural")
        assert not has_batch_fitter("seasonal_mean")

    def test_unsupported_model_returns_none(self):
        assert fit_temporal_batch("seasonal_mean", [np.ones(48)], period=24) is None

    def test_batch_fitter_order_and_type(self):
        histories = make_histories(3, 24 * 4, seed=10)
        fitted = fit_temporal_batch("neural", histories, period=24)
        assert fitted is not None and len(fitted) == 3
        assert all(isinstance(m, NeuralNetPredictor) for m in fitted)


class TestCombinedIntegration:
    def _matrix(self, seed=21, n_series=6, days=5, period=24):
        rng = np.random.default_rng(seed)
        t = np.arange(days * period)
        # Two diurnal shapes a quarter-day apart: at least two signatures.
        bases = [
            30 + 20 * np.sin(2 * np.pi * t / period),
            30 + 20 * np.cos(2 * np.pi * t / period),
        ]
        return np.vstack(
            [
                rng.uniform(0.5, 2.0) * bases[i % 2] + rng.normal(0, 1.0, size=t.size)
                for i in range(n_series)
            ]
        )

    def test_batched_matches_serial_pipeline(self):
        """The combined predictor equals one built on oracle-fitted models."""
        config = SpatialTemporalConfig(
            search=SignatureSearchConfig(method=ClusteringMethod.CBC),
            temporal_model="neural",
            period=24,
        )
        data = self._matrix()
        batched = SpatialTemporalPredictor(config).fit_predict(data, 24)

        serial = SpatialTemporalPredictor(config)
        histories = serial.begin_fit(data)
        assert len(histories) >= 2, "fixture must batch several signatures"
        mlp = MlpConfig(period=config.period)
        serial.finish_fit([SerialNeuralNetPredictor(mlp).fit(h) for h in histories])
        expected = serial.predict(24)
        np.testing.assert_array_equal(expected.predictions, batched.predictions)
