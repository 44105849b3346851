"""Batched MLP training kernel: all signature models of a box in one pass.

A box's ATM fit trains one small MLP per signature series — many identical
tiny models over equally shaped data.  Fitting them one by one spends most
of the wall-clock in Python dispatch (hundreds of numpy calls per model per
epoch on 64×9 matrices).  This module stacks the K models along a leading
axis and runs forward, backprop and Adam as 3-D ``np.matmul`` tensor ops:
one Python-level training loop for the whole batch instead of K.

This kernel is the only MLP training loop: ``NeuralNetPredictor.fit`` is
its K=1 case, :func:`fit_neural_batch` stacks one box's series and
:func:`fit_neural_fused` many boxes'.  Each model is bit-identical to the
textbook one-model loop (forward, backprop, Adam, early stopping on 2-D
arrays), kept as the oracle ``tests/prediction/serial_mlp.py``:

* Every series uses the same ``MlpConfig.seed``, so the K per-model RNG
  streams are identical; drawing the validation split, weight init and
  per-epoch shuffles once from a single generator reproduces each stream.
* Batched ``np.matmul``/reductions apply the same BLAS/pairwise kernels
  per stacked slice as the 2-D one-model ops, so every float op sees the
  same operands in the same order (pinned by
  ``tests/prediction/test_batched_temporal.py``, which asserts
  bit-identical forecasts).
* Early stopping is per-model via a convergence mask: a model whose
  validation loss stalls for ``patience`` epochs leaves the stack exactly
  when its one-model twin would break out of the loop, and the batch
  compacts to the survivors — total training work equals K one-model
  fits', with the Python dispatch overhead divided by the stack width.
  Each model's result is its best-validation snapshot.
* A shared Adam step counter is valid because a *live* model's step count
  always equals the global one; converged models take no further steps.

Histories of different lengths are grouped and each equal-length group is
batched (within a box all signature series share the training window, so
this is one group in practice).  The kernel composes with the
process-level ``FleetExecutor`` multiplicatively: processes fan out over
boxes, the batch axis vectorizes within a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.prediction.base import validate_history
from repro.prediction.temporal.neural import MlpConfig, NeuralNetPredictor, _Mlp
from repro.prediction.temporal.seasonal import (
    phase_aligned_slot_means_batch,
    seasonal_feature_matrix_batch,
)

__all__ = [
    "FUSED_SLAB_MODELS",
    "BatchFitState",
    "fit_equal_length_state",
    "fit_neural_batch",
    "fit_neural_fused",
    "models_from_params",
]

#: Default slab width of the fleet-fused kernel: how many models train in
#: one ``(K, P)`` tensor pass.  Wider slabs amortize more Python dispatch
#: per op.  Swept on ``perfbench`` ``paper-neural`` (2-vCPU host, one BLAS
#: thread, two 30 s runs per width, boxes/s): 16 → 10.6 / 11.0,
#: 32 → 11.6 / 12.9, 64 → 14.5 / 12.4, 128 → 14.4 / 12.8; 64 and 128 are
#: within run-to-run noise of each other.  Slabs are bit-identical to any
#: other split because every model's RNG stream and row-local math are
#: independent of its slab neighbours.
FUSED_SLAB_MODELS = 64

_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def fit_neural_batch(
    histories: Sequence[Sequence[float]], config: Optional[MlpConfig] = None
) -> List[NeuralNetPredictor]:
    """Fit one :class:`NeuralNetPredictor` per history in a vectorized pass.

    Returns fitted predictors in input order, each bit-identical to
    ``NeuralNetPredictor(config).fit(history)``.  Histories of equal length
    are trained together; distinct lengths form separate batches.
    """
    cfg = config or MlpConfig()
    arrs = [validate_history(h, minimum=cfg.period + 2) for h in histories]
    fitted: List[Optional[NeuralNetPredictor]] = [None] * len(arrs)
    groups: dict = {}
    for pos, arr in enumerate(arrs):
        groups.setdefault(arr.size, []).append(pos)
    for positions in groups.values():
        stack = np.stack([arrs[pos] for pos in positions])
        models, _ = fit_equal_length_state(stack, cfg)
        for pos, model in zip(positions, models):
            fitted[pos] = model
    return fitted  # type: ignore[return-value]


def fit_neural_fused(
    history_groups: Sequence[Sequence[Sequence[float]]],
    config: Optional[MlpConfig] = None,
    max_models: int = FUSED_SLAB_MODELS,
) -> List[Optional[List[NeuralNetPredictor]]]:
    """Fit many groups' (boxes') signature models in cross-group mega-batches.

    The fleet-fused twin of calling :func:`fit_neural_batch` once per
    group: all series of all groups that share a history length join one
    ragged mega-batch, trained as ``(K, P)`` slabs of at most
    ``max_models`` models, and the fitted predictors are scattered back
    into per-group lists in input order.  Every model is bit-identical to
    its per-group — and therefore per-series serial — fit, because all
    series share ``config.seed`` (identical RNG streams) and every tensor
    op in the kernel is row-local, with every per-model reduction summing
    the way the serial one does (see the y_mean note in
    :func:`_prepare_batch`); which batch a model happens to ride in cannot
    change its floats.

    Failure isolation mirrors the per-box degradation ladder: a group
    whose histories fail validation (too short, non-finite samples) gets
    ``None`` in the returned list instead of poisoning the shared batch —
    the caller re-runs exactly those groups down its per-box path, where
    the same error re-raises and climbs the ladder as it always did.
    """
    cfg = config or MlpConfig()
    validated: List[Optional[List[np.ndarray]]] = []
    for group in history_groups:
        try:
            validated.append(
                [validate_history(h, minimum=cfg.period + 2) for h in group]
            )
        except Exception:
            validated.append(None)
    out: List[Optional[List[NeuralNetPredictor]]] = [
        None if group is None else [None] * len(group) for group in validated
    ]
    flat: List[Tuple[int, int, np.ndarray]] = [
        (gi, si, arr)
        for gi, group in enumerate(validated)
        if group is not None
        for si, arr in enumerate(group)
    ]
    by_length: dict = {}
    for pos, (_, _, arr) in enumerate(flat):
        by_length.setdefault(arr.size, []).append(pos)
    for positions in by_length.values():
        obs.inc("fused.groups")
        obs.gauge_max("fused.models_per_pass", float(min(len(positions), max_models)))
        stack = np.stack([flat[pos][2] for pos in positions])
        models, _ = fit_equal_length_state(stack, cfg, max_models=max_models)
        for pos, model in zip(positions, models):
            gi, si, _ = flat[pos]
            out[gi][si] = model  # type: ignore[index]
    return out


class _BatchedMlp:
    """K stacked MLPs trained in lock-step with 3-D tensor ops.

    All parameters of one model live in a single contiguous row of a
    ``(K, P)`` buffer; per-layer weight/bias tensors are strided *views*
    into it.  The layout makes the Adam update a handful of whole-buffer
    elementwise ops instead of one op set per layer — elementwise math is
    layout-independent, so every parameter still sees the exact serial
    float sequence.

    A training step allocates no arrays: per-layer activations, ReLU
    masks, backprop deltas and two Adam scratch buffers are allocated once
    per fit, at the starting stack width and ``max_rows`` rows, and every
    op writes through ``out=``.  A call over ``rows`` rows (a minibatch,
    the ragged last one, the validation set) views the front of the same
    flat buffers as contiguous ``(K, rows, width)`` arrays, and
    :meth:`compact` narrows the stack onto the front rows of params and
    Adam moments.  Every 2-D slice a matmul sees has the strides of a
    fresh array, so the kernels and every float match a step that
    allocates its temporaries; preallocating keeps the allocator from
    handing those multi-hundred-KiB arrays back to the OS on free and
    faulting them in again on the next step.
    """

    def __init__(
        self,
        n_models: int,
        sizes: Sequence[int],
        rng: np.random.Generator,
        max_rows: int,
    ):
        self.n_models = n_models
        # Weights of all layers first, biases after: the L2 gradient term
        # touches exactly params[:, :w_total] as one contiguous slice.
        self._layers: List[Tuple[int, int, int, int]] = []  # (w_off, b_off, in, out)
        w_offset = sum(i * o for i, o in zip(sizes[:-1], sizes[1:]))
        self._w_total = w_offset
        b_offset = w_offset
        w_offset = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self._layers.append((w_offset, b_offset, fan_in, fan_out))
            w_offset += fan_in * fan_out
            b_offset += fan_out
        self._n_params = b_offset

        shape = (n_models, self._n_params)
        self._params_buf = np.empty(shape)
        self._grads_buf = np.empty(shape)
        self._adam_m_buf = np.zeros(shape)
        self._adam_v_buf = np.zeros(shape)
        self._scratch_buf = (np.empty(shape), np.empty(shape))
        # Flat per-layer workspace: a call over (k, rows) views the first
        # k * rows * width entries as a contiguous (k, rows, width) array.
        self._widths = list(sizes[1:])
        self._acts_buf = [np.empty(n_models * max_rows * w) for w in self._widths]
        self._deltas_buf = [np.empty(n_models * max_rows * w) for w in self._widths]
        self._masks_buf = [
            np.empty(n_models * max_rows * w, dtype=bool) for w in self._widths[:-1]
        ]
        self._build_views()

        for w, b in zip(self.weights, self.biases):
            fan_in = w.shape[1]
            scale = np.sqrt(2.0 / fan_in)  # He init, drawn once: seeds are shared
            w[:] = rng.normal(0.0, scale, size=w.shape[1:])[None]
            b[:] = 0.0
        self._adam_t = 0

    def _build_views(self) -> None:
        """Views over the first ``n_models`` rows of every buffer.

        Per-layer weight/bias tensors are strided views into the flat
        params and grads.  Workspace views depend on the row count too and
        are built on first use (:meth:`_workspace`).
        """
        k = self.n_models
        self.params = self._params_buf[:k]
        self.grads = self._grads_buf[:k]
        self._adam_m = self._adam_m_buf[:k]
        self._adam_v = self._adam_v_buf[:k]
        self._scratch = tuple(buf[:k] for buf in self._scratch_buf)
        self._workspaces: Dict[int, _Workspace] = {}
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        self._weights_t: List[np.ndarray] = []
        self._grads_w: List[np.ndarray] = []
        self._grads_b: List[np.ndarray] = []
        for w_off, b_off, fan_in, fan_out in self._layers:
            w_end, b_end = w_off + fan_in * fan_out, b_off + fan_out
            weight = self.params[:, w_off:w_end].reshape(-1, fan_in, fan_out)
            self.weights.append(weight)
            self._weights_t.append(weight.transpose(0, 2, 1))
            self.biases.append(self.params[:, b_off:b_end].reshape(-1, 1, fan_out))
            self._grads_w.append(self.grads[:, w_off:w_end].reshape(-1, fan_in, fan_out))
            self._grads_b.append(self.grads[:, b_off:b_end].reshape(-1, 1, fan_out))

    def _workspace(self, rows: int) -> _Workspace:
        """Contiguous (K, rows, width) activation, mask and delta views.

        A fit sees at most three row counts per stack width (full
        minibatch, ragged last minibatch, validation), so the views are
        kept until the next :meth:`compact`.
        """
        space = self._workspaces.get(rows)
        if space is None:
            k = self.n_models

            def views(bufs: List[np.ndarray]) -> List[np.ndarray]:
                return [
                    buf[: k * rows * w].reshape(k, rows, w)
                    for buf, w in zip(bufs, self._widths)
                ]

            space = self._workspaces[rows] = _Workspace(
                views(self._acts_buf), views(self._masks_buf), views(self._deltas_buf)
            )
        return space

    def forward(self, x: np.ndarray, with_masks: bool = True) -> np.ndarray:
        """Forward pass over ``x`` of shape (K, n, d), n <= ``max_rows``.

        Returns the output, a view into the workspace that the next call
        overwrites.  The activations and, with ``with_masks``, the ReLU
        masks stay in the workspace for backprop (post-ReLU positivity
        equals pre-ReLU positivity, so the bits match the serial
        ``acts > 0``).  Elementwise steps run in place on the matmul result
        in the serial float-op order.
        """
        space = self._workspace(x.shape[1])
        out = x
        last = len(self.weights) - 1
        for idx, (w, b, act) in enumerate(zip(self.weights, self.biases, space.acts)):
            out = np.matmul(out, w, out=act)
            out += b
            if idx != last:
                np.maximum(out, 0.0, out=out)  # ReLU
                if with_masks:
                    np.greater(out, 0.0, out=space.masks[idx])
        return out

    def train_batch(self, x: np.ndarray, y: np.ndarray, lr: float, l2: float) -> None:
        """One minibatch step for all K models (same rows for each model)."""
        out = self.forward(x)
        space = self._workspace(x.shape[1])
        delta = np.subtract(out, y, out=space.deltas[-1])
        delta *= 2.0  # dMSE/dout, per model: 2 * (out - y) / n
        delta /= x.shape[1]
        for idx in range(len(self.weights) - 1, -1, -1):
            inputs = space.acts[idx - 1] if idx > 0 else x
            np.matmul(inputs.transpose(0, 2, 1), delta, out=self._grads_w[idx])
            # np.add.reduce == ndarray.sum minus the Python method wrapper.
            np.add.reduce(delta, axis=1, keepdims=True, out=self._grads_b[idx])
            if idx > 0:
                delta = np.matmul(delta, self._weights_t[idx], out=space.deltas[idx - 1])
                delta *= space.masks[idx - 1]  # ReLU gradient
        # L2 term for every weight (not bias) in one slice op; elementwise,
        # so the per-parameter float sequence matches the serial
        # ``acts.T @ delta + l2 * w``.
        w_total = self._w_total
        decay = np.multiply(
            self.params[:, :w_total], l2, out=self._scratch[0][:, :w_total]
        )
        self.grads[:, :w_total] += decay
        self._adam_step(lr)

    def _adam_step(self, lr: float) -> None:
        """Adam over the whole flat parameter buffer in one op sequence.

        Mirrors the serial per-parameter update exactly (same expressions,
        in-place where the op order is unchanged); operating on the
        concatenated buffer only changes how the elementwise work is
        chunked, not any individual float op.
        """
        self._adam_t += 1
        c1 = 1 - _ADAM_BETA1**self._adam_t
        c2 = 1 - _ADAM_BETA2**self._adam_t
        grad, m, v = self.grads, self._adam_m, self._adam_v
        step, denom = self._scratch
        m *= _ADAM_BETA1  # m = beta1 * m + (1 - beta1) * grad
        m += np.multiply(grad, 1 - _ADAM_BETA1, out=step)
        v *= _ADAM_BETA2  # v = beta2 * v + ((1 - beta2) * grad) * grad
        np.multiply(grad, 1 - _ADAM_BETA2, out=step)
        step *= grad
        v += step
        np.divide(m, c1, out=step)  # lr * m_hat / (sqrt(v_hat) + eps)
        step *= lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += _ADAM_EPS
        step /= denom
        self.params -= step

    def snapshot(self) -> np.ndarray:
        return self.params.copy()

    def copy_models_into(
        self, dest: np.ndarray, dest_rows: np.ndarray, stack_rows: np.ndarray
    ) -> None:
        """Copy current params of stack rows into ``dest`` at ``dest_rows``."""
        dest[dest_rows] = self.params[stack_rows]

    def compact(self, kept: np.ndarray) -> None:
        """Drop converged models from the stack (ascending ``kept`` rows).

        The survivors' params and Adam moments move into the front rows of
        their buffers and every view is rebuilt over that prefix.  Per-slice
        tensor ops are independent, so shrinking the leading axis leaves
        the surviving models' float streams untouched; the dropped models'
        best snapshots were taken before they froze.
        """
        for buf in (self._params_buf, self._adam_m_buf, self._adam_v_buf):
            _move_rows_to_front(buf, kept)
        self.n_models = kept.size
        self._build_views()

    def extract_model(self, snapshot: np.ndarray, index: int) -> _Mlp:
        """Inference :class:`_Mlp` for model ``index`` from a params snapshot."""
        row = snapshot[index]
        weights, biases = [], []
        for w_off, b_off, fan_in, fan_out in self._layers:
            weights.append(row[w_off : w_off + fan_in * fan_out].reshape(fan_in, fan_out))
            biases.append(row[b_off : b_off + fan_out])
        return _Mlp.from_params(weights, biases)


class _Workspace(NamedTuple):
    """Per-layer (K, rows, width) views of one row count; masks skip the output."""

    acts: List[np.ndarray]
    masks: List[np.ndarray]
    deltas: List[np.ndarray]


def _move_rows_to_front(buf: np.ndarray, rows: np.ndarray) -> None:
    """Copy ``buf[rows]`` (ascending indices) onto ``buf[:rows.size]`` in place.

    Row ``rows[i] >= i`` is read before any later copy can overwrite it,
    so the move needs no temporary.
    """
    for dst, src in enumerate(rows.tolist()):
        if dst != src:
            buf[dst] = buf[src]


@dataclass
class BatchFitState:
    """Best-validation outcome of one equal-length batched fit.

    ``params`` is the flat ``(K, P)`` best-snapshot buffer in history input
    order, ``best_val`` the per-model best validation loss reached and
    ``epochs`` the per-model epoch count of that fit.  The buffer is a valid
    warm initializer for a refit of the same K-model topology (see
    :mod:`repro.prediction.temporal.warm`), and together with the training
    matrix it fully determines the fitted predictors — serving it back
    through :func:`models_from_params` reproduces them without training.
    """

    params: np.ndarray
    best_val: np.ndarray
    epochs: np.ndarray


class _Prepared(NamedTuple):
    """Deterministic pre-training state shared by fit and resume paths."""

    depth: int
    slot_means: np.ndarray
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    sizes: List[int]
    rng: np.random.Generator


def _prepare_batch(matrix: np.ndarray, cfg: MlpConfig) -> _Prepared:
    """Features, normalization stats and the split — everything before SGD.

    Pure function of ``(matrix, cfg)``: the rng is seeded from the config
    and has consumed exactly one permutation draw (the validation split) on
    return, so continuing fits and store-served resumes agree bit for bit.
    """
    _, size = matrix.shape
    period = cfg.period
    depth = min(cfg.seasonal_depth, max(1, size // period - 1))
    slot_means = phase_aligned_slot_means_batch(matrix, period)

    start = depth * period
    if start >= size:
        start = period
    t_indices = np.arange(start, size)
    features = seasonal_feature_matrix_batch(matrix, t_indices, depth, period, slot_means)
    target_rows = matrix[:, t_indices]  # (K, n)
    targets = target_rows[:, :, None]

    x_mean = features.mean(axis=1)  # (K, d)
    x_std = features.std(axis=1)
    x_std[x_std < 1e-9] = 1.0
    # Scalar y stats per model as flat 1-D reductions.  ``target_rows`` is
    # laid out n-major in memory (fancy indexing along axis 1 does that), so
    # ``target_rows.mean(axis=1)`` would reduce a strided outer axis, which
    # numpy accumulates row after row instead of pairwise like the serial
    # ``targets.mean()``: it drifts in the last ulp.  A row-wise mean over
    # C-contiguous rows sums pairwise and is bit-identical (the validation
    # loss relies on that).  K scalar reductions per fit are free.
    y_mean = np.array([float(row.mean()) for row in target_rows])
    y_std = np.array([float(row.std()) or 1.0 for row in target_rows])
    x = (features - x_mean[:, None, :]) / x_std[:, None, :]
    y = (targets - y_mean[:, None, None]) / y_std[:, None, None]

    # One generator stands in for all K per-series generators: every serial
    # fit seeds identically, so the streams coincide draw for draw.
    rng = np.random.default_rng(cfg.seed)
    n_rows = x.shape[1]
    order = rng.permutation(n_rows)
    n_val = max(1, int(cfg.validation_fraction * n_rows))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        train_idx = val_idx
    sizes = [x.shape[2], *cfg.hidden_layers, 1]
    return _Prepared(
        depth=depth,
        slot_means=slot_means,
        x_mean=x_mean,
        x_std=x_std,
        y_mean=y_mean,
        y_std=y_std,
        # take() returns C-contiguous (K, n, .) arrays, so the per-epoch
        # gather in the fit can write into its buffers without a copy.
        x_train=x.take(train_idx, axis=1),
        y_train=y.take(train_idx, axis=1),
        x_val=x.take(val_idx, axis=1),
        y_val=y.take(val_idx, axis=1),
        sizes=sizes,
        rng=rng,
    )


def _flat_val_losses(net: _BatchedMlp, x_val: np.ndarray, y_val: np.ndarray) -> np.ndarray:
    """Per-model validation MSE, computed in the output activation buffer.

    The row-wise ``mean(axis=1)`` sums each model's contiguous row
    pairwise, exactly like the serial flat ``mean()`` (see the y_mean note
    in :func:`_prepare_batch`; pinned by
    ``tests/prediction/test_batched_workspace.py``).
    """
    squared = net.forward(x_val, with_masks=False)
    squared -= y_val
    np.square(squared, out=squared)
    return squared[:, :, 0].mean(axis=1)


def _models_from_batch(
    matrix: np.ndarray,
    cfg: MlpConfig,
    prepared: _Prepared,
    net: _BatchedMlp,
    best_state: np.ndarray,
    epochs_run: np.ndarray,
) -> List[NeuralNetPredictor]:
    return [
        NeuralNetPredictor._from_batch_state(
            config=cfg,
            history=matrix[index].copy(),
            net=net.extract_model(best_state, index),
            depth=prepared.depth,
            slot_mean_vec=prepared.slot_means[index].copy(),
            x_mean=prepared.x_mean[index].copy(),
            x_std=prepared.x_std[index].copy(),
            y_mean=float(prepared.y_mean[index]),
            y_std=float(prepared.y_std[index]),
            fit_epochs=int(epochs_run[index]),
        )
        for index in range(matrix.shape[0])
    ]


def models_from_params(
    matrix: np.ndarray, cfg: MlpConfig, state: BatchFitState
) -> List[NeuralNetPredictor]:
    """Reconstruct the fitted predictors of a batch from its saved state.

    Zero training: the normalization stats are recomputed (they are a pure
    function of the data) and the saved ``(K, P)`` buffer is decoded into
    per-model networks.  Used by the warm-resume path to serve a
    store-persisted refit without replaying it.
    """
    prepared = _prepare_batch(matrix, cfg)
    net = _BatchedMlp(matrix.shape[0], prepared.sizes, prepared.rng, max_rows=0)
    return _models_from_batch(matrix, cfg, prepared, net, state.params, state.epochs)


def fit_equal_length_state(
    matrix: np.ndarray,
    cfg: MlpConfig,
    init_params: Optional[np.ndarray] = None,
    patience: Optional[int] = None,
    max_models: Optional[int] = None,
) -> Tuple[List[NeuralNetPredictor], BatchFitState]:
    """Train one equal-length batch, optionally warm-started.

    Without ``init_params`` this is the cold fit: each model bit-identical
    to the one-model serial loop.  With a ``(K, P)`` buffer, training resumes
    from those weights: the buffer overwrites the He init *after* the init
    draw (keeping the rng stream aligned with a cold fit), and the warm
    parameters' own validation loss seeds the early-stopping baseline, so
    the fit can never return weights worse on validation than its starting
    point.  ``patience`` overrides ``cfg.patience`` — warm refits pass a
    short fine-tune patience, since the initializer is already near the
    advanced window's optimum and a full cold-schedule patience mostly
    chases sub-1e-6 validation wiggles.

    ``max_models`` bounds the tensor-stack width: a wider batch is trained
    as consecutive slabs of at most that many models, each an independent
    full fit.  Splitting is bit-identical to an unbounded stack — every
    model draws from its own copy of the shared-seed RNG stream and all
    tensor math is row-local — so the bound is purely a working-set knob
    for the fleet-fused path (see :data:`FUSED_SLAB_MODELS`).  The claim
    leans on every per-model reduction summing like the serial flat one
    (see the y_mean note in :func:`_prepare_batch`): a mean over a strided
    outer axis would put a wide stack in a different float family than a
    ``(1, n)`` remainder slab, and the slab-straddling equivalence tests
    would catch it.
    """
    n_models = matrix.shape[0]
    if max_models is not None:
        if max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {max_models}")
        if n_models > max_models:
            models: List[NeuralNetPredictor] = []
            parts: List[BatchFitState] = []
            for lo in range(0, n_models, max_models):
                hi = lo + max_models
                sub_init = None if init_params is None else init_params[lo:hi]
                sub_models, sub_state = fit_equal_length_state(
                    matrix[lo:hi], cfg, sub_init, patience
                )
                models.extend(sub_models)
                parts.append(sub_state)
            state = BatchFitState(
                params=np.vstack([part.params for part in parts]),
                best_val=np.concatenate([part.best_val for part in parts]),
                epochs=np.concatenate([part.epochs for part in parts]),
            )
            return models, state
    prepared = _prepare_batch(matrix, cfg)
    # The split arrays belong to this fit: compaction moves the live models'
    # rows to their front in place, and each epoch's shuffle is gathered into
    # preallocated buffers, so the epoch loop allocates no training data.
    x_train, y_train = prepared.x_train, prepared.y_train
    x_val, y_val = prepared.x_val, prepared.y_val
    x_epoch, y_epoch = np.empty(x_train.shape), np.empty(y_train.shape)
    n_train = x_train.shape[1]
    rng = prepared.rng

    net = _BatchedMlp(n_models, prepared.sizes, rng, max(cfg.batch_size, x_val.shape[1]))
    if init_params is not None:
        if init_params.shape != net.params.shape:
            raise ValueError(
                f"warm-start buffer shape {init_params.shape} does not match "
                f"batch parameter shape {net.params.shape}"
            )
        net.params[:] = init_params
    best_state = net.snapshot()  # indexed by original model position
    if init_params is not None:
        best_val = _flat_val_losses(net, x_val, y_val)
    else:
        best_val = np.full(n_models, np.inf)
    effective_patience = cfg.patience if patience is None else patience
    stale = np.zeros(n_models, dtype=int)
    epochs_run = np.zeros(n_models, dtype=int)
    # Models still training, as original positions into the (shrinking) stack.
    live = np.arange(n_models)
    for _ in range(cfg.max_epochs):
        k = live.size
        if k == 0:
            break
        perm = rng.permutation(n_train)
        # One gather per epoch; mode="clip" (a no-op on a permutation) lets
        # take write straight into ``out`` instead of through a temporary.
        np.take(x_train[:k], perm, axis=1, out=x_epoch[:k], mode="clip")
        np.take(y_train[:k], perm, axis=1, out=y_epoch[:k], mode="clip")
        for lo in range(0, n_train, cfg.batch_size):
            hi = lo + cfg.batch_size
            net.train_batch(
                x_epoch[:k, lo:hi], y_epoch[:k, lo:hi], cfg.learning_rate, cfg.l2
            )
        val_loss = _flat_val_losses(net, x_val[:k], y_val[:k])
        epochs_run[live] += 1
        improved = val_loss < best_val[live] - 1e-6
        if improved.any():
            net.copy_models_into(best_state, live[improved], np.flatnonzero(improved))
            best_val[live[improved]] = val_loss[improved]
            stale[live[improved]] = 0
        stale[live[~improved]] += 1
        frozen = stale[live] >= effective_patience
        if frozen.any():
            # Converged models leave the tensor stack — the batch narrows to
            # exactly the work the serial path would still be doing.
            kept = np.flatnonzero(~frozen)
            live = live[kept]
            net.compact(kept)
            for arr in (x_train, y_train, x_val, y_val):
                _move_rows_to_front(arr, kept)

    obs.inc("mlp.models", float(n_models))
    obs.inc("mlp.model_epochs", float(epochs_run.sum()))
    obs.inc("mlp.early_stopped", float(np.count_nonzero(epochs_run < cfg.max_epochs)))
    models = _models_from_batch(matrix, cfg, prepared, net, best_state, epochs_run)
    state = BatchFitState(params=best_state, best_val=best_val, epochs=epochs_run)
    return models, state
