"""Two-layer linear classifier with analytic softmax cross-entropy
gradients, a deterministic SGD fine-tuning loop with freezable parts, the
2-D Gaussian toy-data generator, and the closed-form predictor of how one
update moves the hidden features of an input the batch never contained.

Each model formula is stated once. ``_forward`` is the one forward kernel:
``forward`` (a one-row batch), ``forward_batch`` and the loss all call it.
``_batch_loss_grads`` is the one loss-gradient kernel: the only place the
softmax error (softmax - one-hot) / N is formed, read by ``fine_tune``,
``loss_and_grads`` and ``absent_feature_shift`` alike. They and the SGD
update work in place, yet make the plain formulas' IEEE operations in the
same order, so every result is bit-identical to those formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabelPartition, LabeledFeatures, LinearHead, _class_set, _frozen_array
from .errors import TrainingError, ValidationError, _integer, _real
from .rng import check_seed, derive_rng

ACTIVATIONS = ("linear", "rectified")
# per mode, the parameters fine_tune updates: 0 the hidden map, 1 the head
_UPDATED = {"full": (0, 1), "frozen_classifier": (0,), "linear_probe": (1,)}
MODES = tuple(_UPDATED)


@dataclass(frozen=True, eq=False)
class MlpModel:
    """hidden = activation(hidden_map @ x); logits = head @ hidden."""

    hidden_map: np.ndarray
    head: LinearHead
    activation: str = "linear"

    def __post_init__(self):
        hidden_map = _frozen_array(self.hidden_map, np.float64, "hidden_map", ndim=2)
        if self.head.dim != hidden_map.shape[0]:
            raise ValidationError(
                f"head expects {self.head.dim} hidden features but hidden_map "
                f"produces {hidden_map.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"activation must be one of {ACTIVATIONS}")
        object.__setattr__(self, "hidden_map", hidden_map)

    @property
    def dim_in(self) -> int:
        return self.hidden_map.shape[1]

    @property
    def dim_hidden(self) -> int:
        return self.hidden_map.shape[0]

    @property
    def num_classes(self) -> int:
        return self.head.num_classes


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings; ``mode`` picks which parameter blocks get updated."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    epochs: int = 100
    batch_size: int = 32
    mode: str = "full"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "learning_rate", _real(self.learning_rate, "learning_rate", 0.0))
        object.__setattr__(self, "momentum", _real(self.momentum, "momentum", 0.0, 1.0))
        object.__setattr__(self, "weight_decay", _real(self.weight_decay, "weight_decay", 0.0))
        object.__setattr__(self, "epochs", _integer(self.epochs, "epochs", 1))
        object.__setattr__(self, "batch_size", _integer(self.batch_size, "batch_size", 1))
        object.__setattr__(self, "seed", check_seed(self.seed))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    accuracy: float


@dataclass(frozen=True)
class ToySpec:
    """Generator settings for the 2-D Gaussian toy experiment.

    The pre-training domain draws each class around its mean; the target
    domain shifts each class mean horizontally by its entry of ``shift``.
    All coordinates are clamped to be nonnegative.
    """

    class_means: tuple[tuple[float, ...], ...] = (
        (10.0, 2.0), (10.0, 3.0), (10.0, 8.0), (10.0, 7.0)
    )
    stddev: float = 0.2
    shift: tuple[float, ...] = (1.0, -1.0, -1.0, 1.0)
    samples_per_class: int = 200
    fine_tuning: tuple[int, ...] = (0, 1)

    def __post_init__(self):
        means = tuple(tuple(_real(v, "class_means") for v in m) for m in self.class_means)
        if len(means) < 2 or any(len(m) != 2 for m in means):
            raise ValidationError("class_means must hold at least two 2-D points")
        shift = tuple(_real(s, "shift") for s in self.shift)
        if len(shift) != len(means):
            raise ValidationError("shift must provide one horizontal offset per class")
        count = _integer(self.samples_per_class, "samples_per_class", 1)
        ft = LabelPartition(len(means), self.fine_tuning).fine_tuning
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "stddev", _real(self.stddev, "stddev", 0.0))
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "samples_per_class", count)
        object.__setattr__(self, "fine_tuning", ft)

    @property
    def num_classes(self) -> int:
        return len(self.class_means)


def _forward(hidden_map, head_weights, activation, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Hidden features and logits of an N x d_in input matrix."""
    hidden = inputs @ hidden_map.T
    if activation == "rectified":
        np.maximum(hidden, 0.0, out=hidden)
    return hidden, hidden @ head_weights.T


def _input_vector(model: MlpModel, x, name: str = "input") -> np.ndarray:
    """``x`` flattened to a finite vector of the model's input width."""
    x = _frozen_array(x, np.float64, name, ndim=1, flatten=True)
    if x.shape[0] != model.dim_in:
        raise ValidationError(f"{name} has {x.shape[0]} entries, model expects {model.dim_in}")
    return x


def _sample(model: MlpModel, x, y) -> tuple[np.ndarray, np.ndarray]:
    """One labelled example as a one-row batch: ``x`` a finite vector of the
    model's input width, ``y`` a label in [0, num_classes)."""
    return _input_vector(model, x)[None, :], np.array([_integer(y, "label", 0, model.num_classes)])


def forward(model: MlpModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Hidden features and logits for a single input vector."""
    inputs = _input_vector(model, x)[None, :]
    hidden, logits = _forward(model.hidden_map, model.head.weights, model.activation, inputs)
    return hidden[0], logits[0]


def forward_batch(model: MlpModel, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Hidden features and logits for an N x d_in input matrix."""
    inputs = _frozen_array(inputs, np.float64, "inputs", ndim=2)
    if inputs.shape[1] != model.dim_in:
        raise ValidationError(f"inputs must have shape (N, {model.dim_in}), got {inputs.shape}")
    return _forward(model.hidden_map, model.head.weights, model.activation, inputs)


def loss_and_grads(model: MlpModel, x, y: int):
    """Cross-entropy loss and its analytic gradients for one sample.

    The head gradient row c is (p_c - [y = c]) * hidden; the hidden-map
    gradient is the outer product of the back-propagated error
    head^T (p - onehot_y), gated by the activation derivative, with x.
    """
    inputs, labels = _sample(model, x, y)
    return _batch_loss_grads(
        model.hidden_map, model.head.weights, model.activation, inputs, labels
    )[:3]


def _ce(hidden_map, head_weights, activation, inputs, labels):
    """Forward pass and mean softmax cross-entropy over a batch.

    Returns (hidden, logits, z, z_sum, loss): hidden features, logits, the
    max-shifted exponentials with their row sums, and the mean loss. The
    pre-activations are not kept: a rectified unit is active iff its hidden
    value is positive.
    """
    hidden, logits = _forward(hidden_map, head_weights, activation, inputs)
    shift = np.maximum.reduce(logits, axis=1, keepdims=True)
    z = np.subtract(logits, shift)
    np.exp(z, out=z)
    z_sum = np.add.reduce(z, axis=1)
    per_sample = np.log(z_sum) + shift[:, 0] - logits[np.arange(labels.size), labels]
    loss = float(np.add.reduce(per_sample)) / labels.size  # np.mean's sum and division
    return hidden, logits, z, z_sum, loss


def _batch_loss_grads(hidden_map, head_weights, activation, inputs, labels):
    """Mean loss, mean gradients and the softmax error over a batch.

    Returns (loss, grad_head, grad_hidden_map, err), where row i of ``err``
    is (softmax_i - onehot(labels[i])) / N, formed in place in ``z``.
    """
    hidden, _, err, z_sum, loss = _ce(hidden_map, head_weights, activation, inputs, labels)
    np.divide(err, z_sum[:, None], out=err)
    err[np.arange(labels.size), labels] -= 1.0
    err /= labels.size
    delta = err @ head_weights
    if activation == "rectified":
        delta *= hidden > 0.0
    return loss, err.T @ hidden, delta.T @ inputs, err


def _mean_loss_and_accuracy(hidden_map, head_weights, activation, inputs, labels):
    # a function of its own, so the N x C logits are freed before the next epoch
    _, logits, _, _, loss = _ce(hidden_map, head_weights, activation, inputs, labels)
    return loss, np.count_nonzero(logits.argmax(axis=1) == labels) / labels.size


def fine_tune(
    model: MlpModel,
    data: LabeledFeatures,
    allowed_classes,
    config: TrainConfig,
) -> tuple[MlpModel, list[EpochRecord]]:
    """Mini-batch SGD with momentum and decoupled weight decay.

    The loss is the full softmax cross-entropy over all classes, so classes
    outside ``allowed_classes`` only ever receive negative pressure. Mode
    ``full`` updates both matrices, ``frozen_classifier`` only the hidden
    map, ``linear_probe`` only the head; frozen matrices come back bitwise
    unchanged. Each epoch's shuffle derives from ``config.seed`` and the
    epoch index, so results are reproducible and order-independent. The
    history records end-of-epoch loss and accuracy on the training data.
    """
    allowed = np.unique(_class_set(allowed_classes, "allowed_classes", model.num_classes))
    if allowed.size == 0:
        raise ValidationError("allowed_classes must be nonempty")
    if not np.all(np.isin(data.labels, allowed)):
        raise ValidationError("training data contains labels outside allowed_classes")
    if data.dim != model.dim_in:
        raise ValidationError(f"data has {data.dim} features, model expects {model.dim_in}")

    params = [model.hidden_map.copy(), model.head.weights.copy()]
    updated = _UPDATED[config.mode]
    velocity = [np.zeros_like(params[i]) for i in updated]
    inputs, labels = data.values, data.labels
    n = data.num_samples
    lr, mu, decay = config.learning_rate, config.momentum, config.learning_rate * config.weight_decay

    history: list[EpochRecord] = []
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, epoch).permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad_head, grad_hidden, _ = _batch_loss_grads(
                *params, model.activation, inputs.take(batch, axis=0), labels[batch]
            )
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            grads = (grad_hidden, grad_head)
            for i, v in zip(updated, velocity):
                # in place: v <- mu*v + g, then p <- (p - lr*v) - (lr*wd)*p, formed in g
                v *= mu
                v += grads[i]
                moved = np.subtract(params[i], np.multiply(v, lr, out=grads[i]), out=grads[i])
                params[i] *= decay
                np.subtract(moved, params[i], out=params[i])
        loss, acc = _mean_loss_and_accuracy(*params, model.activation, inputs, labels)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss at epoch {epoch}")
        history.append(EpochRecord(epoch=epoch, loss=loss, accuracy=acc))

    trained = MlpModel(
        hidden_map=params[0], head=LinearHead(params[1]), activation=model.activation
    )
    return trained, history


def gradient_check(num_cases: int = 100, step: float = 1e-5, seed: int = 0) -> float:
    """Worst disagreement between analytic and central-difference gradients.

    Random small models and inputs; both activations are exercised. Each
    case's error is the max absolute difference scaled by the larger
    gradient magnitude (floored at 1 so near-zero gradients are compared
    absolutely). Rectified cases resample until every pre-activation is
    well clear of the kink.
    """
    num_cases = _integer(num_cases, "num_cases", 1)
    step = _real(step, "step", 0.0, low_open=True)
    rng = derive_rng(seed)
    worst = 0.0
    for case in range(num_cases):
        dim_in = int(rng.integers(2, 7))
        dim_hidden = int(rng.integers(2, 6))
        num_classes = int(rng.integers(2, 7))
        activation = ACTIVATIONS[case % 2]
        hidden_map = rng.normal(0.0, 0.7, size=(dim_hidden, dim_in))
        head = rng.normal(0.0, 0.7, size=(num_classes, dim_hidden))
        x = rng.normal(0.0, 1.0, size=dim_in)
        if activation == "rectified":
            while np.abs(hidden_map @ x).min() < 1e-3:
                x = rng.normal(0.0, 1.0, size=dim_in)
        y = int(rng.integers(num_classes))
        model = MlpModel(hidden_map=hidden_map, head=LinearHead(head), activation=activation)
        _, grad_head, grad_hidden = loss_and_grads(model, x, y)
        inputs, labels = x[None, :], np.array([y])
        for analytic, matrix, is_head in ((grad_head, head, True), (grad_hidden, hidden_map, False)):
            numeric = np.zeros_like(matrix)
            bumped = matrix.copy()  # each entry is moved, evaluated twice and put back
            pair = (hidden_map, bumped) if is_head else (bumped, head)
            for idx in np.ndindex(matrix.shape):
                bumped[idx] = matrix[idx] + step
                up = _ce(*pair, activation, inputs, labels)[-1]
                bumped[idx] = matrix[idx] - step
                down = _ce(*pair, activation, inputs, labels)[-1]
                bumped[idx] = matrix[idx]
                numeric[idx] = (up - down) / (2.0 * step)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
            worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    return worst


def gen_toy_data(spec: ToySpec, seed: int) -> tuple[LabeledFeatures, LabeledFeatures]:
    """Draw the pre-training and horizontally shifted target domains.

    Per-class Gaussians with isotropic ``spec.stddev``; target means are the
    pre-training means moved by ``spec.shift`` along the first coordinate.
    Coordinates are clamped at zero.
    """
    rng_pre = derive_rng(seed, 0)
    rng_target = derive_rng(seed, 1)
    n = spec.samples_per_class

    def draw(rng, means):
        blocks, labels = [], []
        for c, mean in enumerate(means):
            samples = np.asarray(mean) + spec.stddev * rng.standard_normal((n, 2))
            blocks.append(np.maximum(samples, 0.0))
            labels.append(np.full(n, c, dtype=np.int64))
        return LabeledFeatures(np.vstack(blocks), np.concatenate(labels))

    target_means = [(mx + dx, my) for (mx, my), dx in zip(spec.class_means, spec.shift)]
    return draw(rng_pre, spec.class_means), draw(rng_target, target_means)


def absent_feature_shift(model: MlpModel, seen_example, absent_input, learning_rate: float):
    """Predicted vs. actual hidden-feature change of ``absent_input`` after
    one plain SGD step on ``seen_example``.

    The closed form, valid only for the linear activation, is
    -lr * sum_j (p_j - [j = y]) w_j (x . x'): the update is proportional to
    the input similarity x . x', so orthogonal inputs do not move at all.
    The actual change applies the analytic hidden-map gradient (momentum
    and weight decay are outside this contract).
    """
    if model.activation != "linear":
        raise ValidationError("the closed-form feature shift requires the linear activation")
    learning_rate = _real(learning_rate, "learning_rate")
    x, y = seen_example
    inputs, labels = _sample(model, x, y)
    other = _input_vector(model, absent_input, "absent_input")
    _, _, grad_hidden, err = _batch_loss_grads(
        model.hidden_map, model.head.weights, model.activation, inputs, labels
    )
    predicted = -learning_rate * (model.head.weights.T @ err[0]) * float(inputs[0] @ other)

    updated = model.hidden_map - learning_rate * grad_hidden
    actual = updated @ other - model.hidden_map @ other
    return predicted, actual


def default_train_config(seed: int = 0) -> TrainConfig:
    """The toy experiment's SGD settings: lr 0.01 for 100 epochs."""
    return TrainConfig(
        learning_rate=0.01,
        momentum=0.0,
        weight_decay=0.0,
        epochs=100,
        batch_size=32,
        seed=seed,
    )
