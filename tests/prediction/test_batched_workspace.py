"""The batched MLP kernel's preallocated workspace.

A training step of :class:`repro.prediction.temporal.batched._BatchedMlp`
writes every activation, mask, delta and Adam temporary into buffers
allocated once per fit.  These tests pin the three claims that design
rests on:

* a step allocates (almost) nothing, so the allocator has no large
  temporaries to hand back to the kernel and fault in again;
* the in-place kernel is still bit-identical to the serial training loop
  (:mod:`tests.prediction.serial_mlp`) across compaction and ragged
  minibatches;
* the vectorized validation loss (a row-wise ``mean(axis=1)``) sums
  exactly like the serial flat ``mean()`` it replaced.
"""

import tracemalloc

import numpy as np
import pytest

from repro.prediction.temporal.batched import _BatchedMlp, fit_equal_length_state
from repro.prediction.temporal.neural import MlpConfig
from tests.prediction.serial_mlp import SerialNeuralNetPredictor


def make_histories(k, size, seed, period):
    """K diurnal series with heterogeneous noise (so convergence differs)."""
    rng = np.random.default_rng(seed)
    t = np.arange(size)
    out = []
    for _ in range(k):
        base = 40 + 25 * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi))
        noise = rng.normal(0, rng.uniform(0.5, 6.0), size)
        out.append(np.maximum(base + noise, 0.0))
    return out


def test_train_step_allocates_under_half_a_mib():
    """One step at production shapes: 6->32->16->1, 64 rows, 64 models.

    A step that allocates its activations, deltas and Adam temporaries
    traces ~4.3 MiB at these shapes; what is left here is numpy's own
    iterator buffers for the strided bias and L2 operands and the
    bool-mask cast.
    """
    k, rows = 64, 64
    net = _BatchedMlp(k, [6, 32, 16, 1], np.random.default_rng(0), max_rows=72)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(k, 400, 6))[:, :rows]
    y = rng.normal(size=(k, 400, 1))[:, :rows]
    for _ in range(3):  # warm-up: views built, numpy caches primed
        net.train_batch(x, y, 1e-2, 1e-4)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        net.train_batch(x, y, 1e-2, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 512 * 1024


def test_production_width_fit_bit_identical_to_serial():
    """64 models at production layer widths, stopping at different epochs.

    240-sample histories at period 24 give 168 windows: 25 validation rows
    and 143 training rows, i.e. two full 64-row minibatches and a ragged
    15-row one per epoch, while models freeze one by one and the stack
    compacts under the survivors.
    """
    cfg = MlpConfig(period=24, max_epochs=60, patience=4)
    histories = make_histories(64, 240, seed=3, period=24)
    batched, state = fit_equal_length_state(np.stack(histories), cfg)
    epochs = state.epochs
    assert len(set(epochs.tolist())) > 5  # many distinct compactions
    assert epochs.min() < cfg.max_epochs
    for history, model in zip(histories, batched):
        serial = SerialNeuralNetPredictor(cfg).fit(history)
        assert serial._fit_epochs == model._fit_epochs
        np.testing.assert_array_equal(serial.predict(24), model.predict(24))


@pytest.mark.parametrize("k", [1, 2, 7, 33, 64])
def test_row_wise_mean_matches_flat_row_mean(k):
    """``(K, n).mean(axis=1)`` over C-contiguous rows == per-row flat means.

    Each row is the reduction's inner, unit-stride axis, so numpy sums it
    pairwise exactly as a 1-D ``row.mean()`` does.  (Reducing the outer
    axis of an ``(n, K)`` array instead accumulates row after row and
    differs in the last ulp; the kernel never does that.)
    """
    rng = np.random.default_rng(k)
    for n in range(1, 601):
        rows = rng.normal(3.0, 10.0, size=(k, n))
        flat = np.array([float(row.mean()) for row in rows])
        np.testing.assert_array_equal(rows.mean(axis=1), flat)
