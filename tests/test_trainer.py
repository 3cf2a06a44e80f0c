import itertools
import math

import numpy as np
import pytest

from ftcal import (
    EpochRecord,
    LabeledFeatures,
    LabelPartition,
    LinearHead,
    MlpModel,
    ToySpec,
    TrainConfig,
    TrainingError,
    ValidationError,
    absent_feature_shift,
    default_train_config,
    fine_tune,
    forward,
    forward_batch,
    gen_toy_data,
    gradient_check,
    loss_and_grads,
    run_toy_pipeline,
)
from ftcal import trainer
from ftcal.rng import derive_rng


def random_model(seed, dim_in=3, dim_hidden=3, num_classes=4, activation="linear"):
    rng = np.random.default_rng(seed)
    return MlpModel(
        hidden_map=rng.normal(size=(dim_hidden, dim_in)),
        head=LinearHead(rng.normal(size=(num_classes, dim_hidden))),
        activation=activation,
    )


def bits(*values):
    """Bytes of floats and float arrays, so -0.0 and 0.0 compare unequal."""
    return [np.asarray(v, dtype=np.float64).tobytes() for v in values]


# ---------------------------------------------------------------------------
# The plain formulas: every temporary a fresh array, every step one numpy
# expression. The trainer's in-place kernels must equal them bit for bit.


def ref_forward(hidden_map, head, activation, inputs):
    pre = inputs @ hidden_map.T
    hidden = pre if activation == "linear" else np.maximum(pre, 0.0)
    return hidden, hidden @ head.T


def ref_ce(hidden_map, head, activation, inputs, labels):
    hidden, logits = ref_forward(hidden_map, head, activation, inputs)
    shift = logits.max(axis=1, keepdims=True)
    z = np.exp(logits - shift)
    z_sum = z.sum(axis=1)
    rows = np.arange(inputs.shape[0])
    loss = float(np.mean(np.log(z_sum) + shift[:, 0] - logits[rows, labels]))
    return hidden, logits, z, z_sum, loss


def ref_batch_loss_grads(hidden_map, head, activation, inputs, labels):
    hidden, _, z, z_sum, loss = ref_ce(hidden_map, head, activation, inputs, labels)
    err = z / z_sum[:, None]
    err[np.arange(inputs.shape[0]), labels] -= 1.0
    err /= inputs.shape[0]
    delta = err @ head
    if activation == "rectified":
        delta = delta * (hidden > 0.0)
    return loss, err.T @ hidden, delta.T @ inputs, err


def ref_fine_tune(model, data, config):
    """(hidden_map, head, history) of the plain SGD loop."""
    params = [np.array(model.hidden_map), np.array(model.head.weights)]
    velocity = [np.zeros_like(p) for p in params]
    updated = {"full": (0, 1), "frozen_classifier": (0,), "linear_probe": (1,)}[config.mode]
    lr, mu, wd = config.learning_rate, config.momentum, config.weight_decay
    history = []
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, epoch).permutation(data.num_samples)
        for start in range(0, data.num_samples, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grad_head, grad_hidden, _ = ref_batch_loss_grads(
                *params, model.activation, data.values[batch], data.labels[batch]
            )
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            grads = (grad_hidden, grad_head)
            for i in updated:
                velocity[i] = mu * velocity[i] + grads[i]
                params[i] = params[i] - lr * velocity[i] - lr * wd * params[i]
        _, logits, _, _, loss = ref_ce(*params, model.activation, data.values, data.labels)
        if not math.isfinite(loss):
            raise TrainingError(f"non-finite loss at epoch {epoch}")
        accuracy = float(np.mean(np.argmax(logits, axis=1) == data.labels))
        history.append(EpochRecord(epoch=epoch, loss=loss, accuracy=accuracy))
    return params[0], params[1], history


def ref_gradient_check(num_cases, step, seed):
    """``gradient_check``'s draws and comparison, with a fresh perturbed
    copy of the matrix for every entry."""
    rng = derive_rng(seed)
    worst = 0.0
    for case in range(num_cases):
        dim_in = int(rng.integers(2, 7))
        dim_hidden = int(rng.integers(2, 6))
        num_classes = int(rng.integers(2, 7))
        activation = ("linear", "rectified")[case % 2]
        hidden_map = rng.normal(0.0, 0.7, size=(dim_hidden, dim_in))
        head = rng.normal(0.0, 0.7, size=(num_classes, dim_hidden))
        x = rng.normal(0.0, 1.0, size=dim_in)
        if activation == "rectified":
            while np.abs(hidden_map @ x).min() < 1e-3:
                x = rng.normal(0.0, 1.0, size=dim_in)
        inputs, labels = x[None, :], np.array([int(rng.integers(num_classes))])
        _, grad_head, grad_hidden, _ = ref_batch_loss_grads(
            hidden_map, head, activation, inputs, labels
        )
        for analytic, matrix, is_head in ((grad_head, head, True), (grad_hidden, hidden_map, False)):
            numeric = np.zeros_like(matrix)
            for idx in np.ndindex(matrix.shape):
                losses = []
                for moved in (matrix[idx] + step, matrix[idx] - step):
                    bumped = matrix.copy()
                    bumped[idx] = moved
                    pair = (hidden_map, bumped) if is_head else (bumped, head)
                    losses.append(ref_ce(*pair, activation, inputs, labels)[-1])
                numeric[idx] = (losses[0] - losses[1]) / (2.0 * step)
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1.0)
            worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    return worst


class TestForward:
    def test_identity_map_with_basis_head_pads_input(self):
        model = MlpModel(
            hidden_map=np.eye(2),
            head=LinearHead([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            activation="linear",
        )
        hidden, logits = forward(model, [4.0, -2.5])
        np.testing.assert_array_equal(hidden, [4.0, -2.5])
        np.testing.assert_array_equal(logits, [4.0, -2.5, 0.0])

    def test_zero_head_gives_uniform_softmax(self):
        model = MlpModel(np.eye(2), LinearHead(np.zeros((4, 2))))
        _, logits = forward(model, [1.0, 2.0])
        np.testing.assert_array_equal(logits, np.zeros(4))

    def test_matches_hand_matrix_multiplication(self):
        model = random_model(0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=3)
        hidden, logits = forward(model, x)
        expected_hidden = [sum(model.hidden_map[i, j] * x[j] for j in range(3)) for i in range(3)]
        np.testing.assert_allclose(hidden, expected_hidden, atol=1e-14)
        expected_logits = [
            sum(model.head.weights[c, i] * hidden[i] for i in range(3)) for c in range(4)
        ]
        np.testing.assert_allclose(logits, expected_logits, atol=1e-14)

    def test_rectified_activation_gates_hidden(self):
        model = MlpModel(np.eye(2), LinearHead(np.zeros((3, 2))), activation="rectified")
        hidden, _ = forward(model, [3.0, -2.0])
        np.testing.assert_array_equal(hidden, [3.0, 0.0])

    def test_batch_agrees_with_single(self):
        model = random_model(2, activation="rectified")
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(7, 3))
        hidden, logits = forward_batch(model, batch)
        for i in range(7):
            h, l = forward(model, batch[i])
            np.testing.assert_allclose(hidden[i], h, atol=1e-14)
            np.testing.assert_allclose(logits[i], l, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            forward(random_model(0), [1.0, 2.0])

    def test_batch_rejects_non_finite_rows(self):
        model = random_model(0, dim_in=2)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="inputs"):
                forward_batch(model, [[0.5, 1.0], [bad, 0.0]])

    @pytest.mark.parametrize("activation", ["linear", "rectified"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_single_is_the_one_row_batch_bit_for_bit(self, activation, scale):
        for seed in range(10):
            model = random_model(seed, dim_in=5, dim_hidden=4, num_classes=6, activation=activation)
            x = np.random.default_rng(seed).normal(size=5) * scale
            hidden, logits = forward(model, x)
            batch_hidden, batch_logits = forward_batch(model, x[None, :])
            assert hidden.tobytes() == batch_hidden[0].tobytes()
            assert logits.tobytes() == batch_logits[0].tobytes()


class TestLossAndGrads:
    def test_zero_head_uniform_probabilities(self):
        model = MlpModel(np.eye(3), LinearHead(np.zeros((4, 3))))
        x = np.array([1.0, -2.0, 0.5])
        loss, grad_head, grad_hidden = loss_and_grads(model, x, 1)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)
        hidden = x
        np.testing.assert_allclose(grad_head[1], -0.75 * hidden, atol=1e-12)
        for c in (0, 2, 3):
            np.testing.assert_allclose(grad_head[c], 0.25 * hidden, atol=1e-12)
        # zero head: no signal reaches the hidden map
        np.testing.assert_allclose(grad_hidden, 0.0, atol=1e-15)

    def test_saturated_prediction_has_vanishing_gradients(self):
        model = MlpModel(
            np.eye(2), LinearHead([[100.0, 0.0], [0.0, 0.0], [0.0, 100.0]])
        )
        loss, grad_head, grad_hidden = loss_and_grads(model, [1.0, -1.0], 0)
        assert loss < 1e-12
        assert np.abs(grad_head).max() < 1e-12
        assert np.abs(grad_hidden).max() < 1e-12

    @pytest.mark.parametrize("activation", ["linear", "rectified"])
    def test_against_finite_differences(self, activation):
        assert gradient_check(num_cases=12, seed=42) < 1e-6

    @pytest.mark.parametrize("num_cases", [0, -5, 2.5])
    def test_gradient_check_needs_a_positive_case_count(self, num_cases):
        with pytest.raises(ValidationError, match="num_cases must be a positive integer"):
            gradient_check(num_cases=num_cases)

    @pytest.mark.parametrize("step", [0.0, np.nan, np.inf])
    def test_gradient_check_needs_a_finite_positive_step(self, step):
        # a nan or inf step once compared nothing and returned 0.0, a pass
        with pytest.raises(ValidationError, match="^step must be finite and > 0"):
            gradient_check(num_cases=1, step=step)

    def test_probabilities_sum_to_one(self):
        # the head-gradient rows sum to (sum_c p_c - 1) * hidden, so a zero
        # column sum is equivalent to the softmax normalizing exactly
        for seed in range(20):
            model = random_model(seed)
            x = np.random.default_rng(seed).normal(size=3)
            _, grad_head, _ = loss_and_grads(model, x, 0)
            assert np.abs(grad_head.sum(axis=0)).max() < 1e-12 * max(1.0, np.abs(x).max())


class TestKernelsEqualThePlainFormulas:
    @pytest.mark.parametrize("activation", ["linear", "rectified"])
    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_forward_loss_error_gradients_and_feature_shift(self, activation, scale):
        # the head's scale sets the logits' scale: near-uniform softmax at
        # 1e-3, underflowing exponentials at 1e3
        for seed in range(10):
            rng = np.random.default_rng([seed, 1])
            base = random_model(seed, dim_in=5, dim_hidden=4, num_classes=6, activation=activation)
            model = MlpModel(base.hidden_map, LinearHead(base.head.weights * scale), activation)
            hidden_map, head = model.hidden_map, model.head.weights
            inputs = rng.normal(size=(7, 5))
            labels = rng.integers(0, 6, size=7)
            assert bits(*forward_batch(model, inputs)) == bits(
                *ref_forward(hidden_map, head, activation, inputs)
            )
            got = trainer._batch_loss_grads(hidden_map, head, activation, inputs, labels)
            want = ref_batch_loss_grads(hidden_map, head, activation, inputs, labels)
            assert bits(*got) == bits(*want)
            assert bits(*loss_and_grads(model, inputs[0], labels[0])) == bits(
                *ref_batch_loss_grads(hidden_map, head, activation, inputs[:1], labels[:1])[:3]
            )
            if activation == "linear":
                lr = float(rng.uniform(0.01, 1.0))
                _, _, grad_hidden, err = ref_batch_loss_grads(
                    hidden_map, head, activation, inputs[:1], labels[:1]
                )
                predicted = -lr * (head.T @ err[0]) * float(inputs[0] @ inputs[1])
                actual = (hidden_map - lr * grad_hidden) @ inputs[1] - hidden_map @ inputs[1]
                shift = absent_feature_shift(model, (inputs[0], labels[0]), inputs[1], lr)
                assert bits(*shift) == bits(predicted, actual)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_check(self, seed):
        assert bits(gradient_check(30, seed=seed)) == bits(ref_gradient_check(30, 1e-5, seed))


class TestFineTuneEqualsThePlainLoop:
    """``fine_tune`` updates its matrices in place; the plain loop makes
    fresh arrays at every step. Same bits, same history, same failures."""

    # (momentum, weight decay) and (samples, batch size): a ragged last
    # batch, one sample per batch, one batch larger than the data
    settings = [(0.0, 0.0), (0.9, 0.0), (0.0, 0.05), (0.9, 0.05)]
    batches = [(23, 5), (23, 1), (23, 40)]

    @pytest.mark.parametrize("activation", ["linear", "rectified"])
    @pytest.mark.parametrize("mode", ["full", "frozen_classifier", "linear_probe"])
    def test_trained_matrices_and_history(self, mode, activation):
        for k, ((momentum, decay), (n, batch_size)) in enumerate(
            itertools.product(self.settings, self.batches)
        ):
            rng = np.random.default_rng(k)
            model = random_model(k, dim_in=4, dim_hidden=3, num_classes=5, activation=activation)
            before = bits(model.hidden_map, model.head.weights)
            data = LabeledFeatures(rng.normal(size=(n, 4)), rng.choice([0, 2, 3], n))
            config = TrainConfig(
                learning_rate=0.3, momentum=momentum, weight_decay=decay, epochs=3,
                batch_size=batch_size, mode=mode, seed=k,
            )
            trained, history = fine_tune(model, data, (0, 2, 3), config)
            hidden_map, head, ref_history = ref_fine_tune(model, data, config)
            assert bits(trained.hidden_map, trained.head.weights) == bits(hidden_map, head)
            assert [bits(r.epoch, r.loss, r.accuracy) for r in history] == [
                bits(r.epoch, r.loss, r.accuracy) for r in ref_history
            ]
            assert bits(model.hidden_map, model.head.weights) == before
            assert not model.hidden_map.flags.writeable
            assert not model.head.weights.flags.writeable

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("activation", ["linear", "rectified"])
    @pytest.mark.parametrize("learning_rate", [1e8, 1e20, 1e60])
    def test_divergence_names_the_same_epoch(self, activation, learning_rate):
        # the hidden map and head grow each other, so a large rate overflows
        # after a few epochs, a huge one in the first
        rng = np.random.default_rng(6)
        model = MlpModel(rng.normal(size=(3, 3)), LinearHead(rng.normal(size=(4, 3))), activation)
        data = LabeledFeatures(rng.normal(size=(23, 3)), rng.integers(0, 2, 23))
        config = TrainConfig(learning_rate, momentum=0.5, epochs=6, batch_size=5, seed=1)
        with pytest.raises(TrainingError) as want:
            ref_fine_tune(model, data, config)
        with pytest.raises(TrainingError) as got:
            fine_tune(model, data, (0, 1), config)
        assert str(got.value) == str(want.value)


class TestFineTune:
    def data(self, seed=0, n=40, dim=3, classes=(0, 1)):
        rng = np.random.default_rng(seed)
        return LabeledFeatures(rng.normal(size=(n, dim)), rng.choice(classes, n))

    def test_zero_learning_rate_is_identity(self):
        model = random_model(1)
        trained, _ = fine_tune(
            model, self.data(), (0, 1), TrainConfig(learning_rate=0.0, epochs=3, seed=0)
        )
        np.testing.assert_array_equal(trained.hidden_map, model.hidden_map)
        np.testing.assert_array_equal(trained.head.weights, model.head.weights)

    def test_linear_probe_freezes_hidden_map_bitwise(self):
        model = random_model(2)
        trained, _ = fine_tune(
            model,
            self.data(),
            (0, 1),
            TrainConfig(learning_rate=0.05, epochs=5, mode="linear_probe", seed=1),
        )
        assert np.array_equal(trained.hidden_map, model.hidden_map)
        assert not np.array_equal(trained.head.weights, model.head.weights)

    def test_frozen_classifier_freezes_head_bitwise(self):
        model = random_model(3)
        trained, _ = fine_tune(
            model,
            self.data(),
            (0, 1),
            TrainConfig(learning_rate=0.05, epochs=5, mode="frozen_classifier", seed=1),
        )
        assert np.array_equal(trained.head.weights, model.head.weights)
        assert not np.array_equal(trained.hidden_map, model.hidden_map)

    def test_labels_outside_allowed_classes_rejected(self):
        model = random_model(4)
        with pytest.raises(ValidationError):
            fine_tune(model, self.data(classes=(0, 3)), (0, 1), TrainConfig(0.01, seed=0))

    def test_repeated_classes_are_merged_and_empty_is_rejected(self):
        model = random_model(9)
        config = TrainConfig(learning_rate=0.05, epochs=2, seed=0)
        expected, _ = fine_tune(model, self.data(), (0, 1), config)
        trained, _ = fine_tune(model, self.data(), [1, 0, 1, 0], config)
        assert np.array_equal(trained.head.weights, expected.head.weights)
        with pytest.raises(ValidationError, match="^allowed_classes must be nonempty$"):
            fine_tune(model, self.data(), [], config)

    def test_non_integral_class_index_rejected(self):
        model = random_model(8)
        config = TrainConfig(learning_rate=0.05, epochs=2, seed=0)
        with pytest.raises(ValidationError, match="class index 1.5 is not an integer"):
            fine_tune(model, self.data(), (0, 1.5), config)
        data = self.data(classes=(0, 2))
        expected, _ = fine_tune(model, data, (0, 2), config)
        for two in (np.int64(2), 2.0):
            trained, _ = fine_tune(model, data, (0, two), config)
            assert np.array_equal(trained.head.weights, expected.head.weights)

    def test_deterministic_given_seed(self):
        model = random_model(5)
        config = TrainConfig(learning_rate=0.02, momentum=0.5, epochs=8, batch_size=8, seed=11)
        a, hist_a = fine_tune(model, self.data(), (0, 1), config)
        b, hist_b = fine_tune(model, self.data(), (0, 1), config)
        assert np.array_equal(a.hidden_map, b.hidden_map)
        assert np.array_equal(a.head.weights, b.head.weights)
        assert hist_a == hist_b

    def test_toy_loss_decreases_over_first_ten_epochs(self):
        spec = ToySpec()
        _, target = gen_toy_data(spec, seed=0)
        mask = np.isin(target.labels, (0, 1))
        data = LabeledFeatures(target.values[mask], target.labels[mask])
        model = MlpModel(np.eye(2), LinearHead(np.full((4, 2), 0.1)))
        _, history = fine_tune(
            model, data, (0, 1), TrainConfig(learning_rate=0.01, epochs=10, batch_size=32, seed=0)
        )
        losses = [record.loss for record in history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        model = random_model(6)
        with pytest.raises(TrainingError, match="epoch"):
            fine_tune(
                model, self.data(), (0, 1), TrainConfig(learning_rate=1e300, epochs=2, seed=0)
            )

    def test_weight_decay_shrinks_unused_rows(self):
        # With decoupled decay, rows that receive no gradient still shrink.
        model = MlpModel(np.eye(2), LinearHead([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]]))
        rng = np.random.default_rng(7)
        data = LabeledFeatures(rng.normal(size=(16, 2)), rng.choice([0, 1], 16))
        trained, _ = fine_tune(
            model,
            data,
            (0, 1),
            TrainConfig(learning_rate=0.1, weight_decay=0.1, epochs=3, mode="linear_probe", seed=0),
        )
        assert np.linalg.norm(trained.head.weights[2]) < np.linalg.norm(model.head.weights[2])


class TestToySpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fine_tuning": ()},
            {"fine_tuning": (0, 1, 2, 3)},
            {"fine_tuning": (0, 0)},
            {"fine_tuning": (0, 4)},
            {"fine_tuning": (-1, 0)},
            {"fine_tuning": ("a",)},
            {"shift": (1.0, -1.0)},
            {"stddev": -0.1},
            {"samples_per_class": 0},
            {"samples_per_class": 7.9},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            ToySpec(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("class_means", ((10.0, 2.0), (10.0, 3.0), (10.0, 8.0), (10.0, np.nan))),
            ("shift", (1.0, -1.0, np.inf, 1.0)),
        ],
    )
    def test_non_finite_entries_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            ToySpec(**{field: value})

    def test_fine_tuning_follows_the_partition_rule(self):
        spec = ToySpec(fine_tuning=(np.int64(3), 1))
        assert spec.fine_tuning == (1, 3)
        assert spec.fine_tuning == LabelPartition(4, (3, 1)).fine_tuning


class TestGenToyData:
    def test_zero_stddev_hits_means_exactly(self):
        spec = ToySpec(stddev=0.0, samples_per_class=3)
        pretraining, target = gen_toy_data(spec, seed=0)
        for c, (mx, my) in enumerate(spec.class_means):
            np.testing.assert_array_equal(
                pretraining.values[pretraining.labels == c], np.tile([mx, my], (3, 1))
            )
            shifted = [max(mx + spec.shift[c], 0.0), my]
            np.testing.assert_array_equal(
                target.values[target.labels == c], np.tile(shifted, (3, 1))
            )

    def test_default_spec_matches_published_toy_setup(self):
        spec = ToySpec()
        assert spec.class_means == ((10.0, 2.0), (10.0, 3.0), (10.0, 8.0), (10.0, 7.0))
        assert spec.stddev == 0.2
        assert spec.fine_tuning == (0, 1)
        assert len(spec.class_means) == 4

    def test_sample_means_near_spec_means(self):
        spec = ToySpec(samples_per_class=400)
        pretraining, _ = gen_toy_data(spec, seed=3)
        bound = 4 * spec.stddev / np.sqrt(400)
        for c, mean in enumerate(spec.class_means):
            got = pretraining.values[pretraining.labels == c].mean(axis=0)
            assert np.all(np.abs(got - mean) <= bound)

    def test_all_values_nonnegative_and_deterministic(self):
        spec = ToySpec(
            class_means=((0.05, 0.05), (1.0, 1.0)),
            shift=(-2.0, 0.0),
            stddev=0.5,
            fine_tuning=(0,),
        )
        a_pre, a_tgt = gen_toy_data(spec, seed=9)
        b_pre, b_tgt = gen_toy_data(spec, seed=9)
        assert a_pre.values.min() >= 0.0 and a_tgt.values.min() >= 0.0
        np.testing.assert_array_equal(a_pre.values, b_pre.values)
        np.testing.assert_array_equal(a_tgt.values, b_tgt.values)


class TestAbsentFeatureShift:
    def test_disjoint_support_inputs_do_not_move(self):
        model = random_model(8, dim_in=4)
        x = np.array([1.3, -0.7, 0.0, 0.0])
        other = np.array([0.0, 0.0, 2.0, -1.0])
        predicted, actual = absent_feature_shift(model, (x, 1), other, 0.5)
        assert np.all(predicted == 0.0)
        assert np.all(actual == 0.0)

    def test_saturated_prediction_does_not_move(self):
        model = MlpModel(np.eye(2), LinearHead([[200.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        predicted, actual = absent_feature_shift(model, ([1.0, 0.0], 0), [1.0, 1.0], 1.0)
        assert np.abs(predicted).max() < 1e-12
        assert np.abs(actual).max() < 1e-12

    def test_closed_form_matches_one_sgd_step(self):
        rng = np.random.default_rng(10)
        for seed in range(25):
            model = random_model(seed, dim_in=4, dim_hidden=3, num_classes=5)
            x = rng.normal(size=4)
            other = rng.normal(size=4)
            y = int(rng.integers(5))
            lr = float(rng.uniform(0.01, 1.0))
            predicted, actual = absent_feature_shift(model, (x, y), other, lr)
            np.testing.assert_allclose(predicted, actual, atol=1e-10, rtol=0)

    def test_prediction_and_step_share_one_kernel_evaluation(self, monkeypatch):
        calls = []
        ce = trainer._ce

        def counted(*args):
            calls.append(args)
            return ce(*args)

        monkeypatch.setattr(trainer, "_ce", counted)
        model = random_model(12, dim_in=4)
        absent_feature_shift(model, ([1.0, 0.5, -0.5, 2.0], 2), [0.5, 0.0, 1.0, -1.0], 0.3)
        assert len(calls) == 1

    @pytest.mark.parametrize("label", [1.7, -1, 5])
    def test_label_follows_the_loss_rule(self, label):
        model = random_model(13, dim_in=2, num_classes=5)
        with pytest.raises(ValidationError, match="label"):
            loss_and_grads(model, [1.0, 0.5], label)
        with pytest.raises(ValidationError, match="label"):
            absent_feature_shift(model, ([1.0, 0.5], label), [0.5, 1.0], 0.1)

    def test_rectified_mode_unsupported(self):
        model = random_model(11, activation="rectified")
        with pytest.raises(ValidationError):
            absent_feature_shift(model, ([1.0, 0.0, 0.0], 0), [0.0, 1.0, 0.0], 1.0)


class TestToyPipelineQualitative:
    def test_collapse_and_recovery(self, toy_report):
        assert toy_report.finetuned_acc.acc_u_y < toy_report.pretrained_acc.acc_u_y
        assert toy_report.finetuned_acc.acc_u_u >= 0.9
        assert toy_report.calibrated_acc.acc_y_y >= 0.9

    def test_histories_written(self, toy_report):
        import os

        for name in ("history_pretrain.csv", "history_finetune.csv", "report.txt"):
            assert os.path.exists(os.path.join(toy_report.outdir, name))

    def test_gamma_estimates_positive(self, toy_report):
        # collapse inflates seen logits, so both estimates are positive
        assert toy_report.gamma_alg.value > 0
        assert toy_report.gamma_star.value > 0


class TestToyPipelinePcv:
    """With 4 fine-tuning classes the toy pipeline also estimates gamma by PCV."""

    def test_pcv_gamma_is_reported_alike_everywhere(self, tmp_path):
        spec = ToySpec(
            class_means=tuple((10.0, y) for y in (1, 2, 3, 4, 6, 7, 8, 9)),
            shift=(1.0, -1.0) * 4,
            fine_tuning=(0, 2, 5, 7),
            samples_per_class=25,
        )
        report = run_toy_pipeline(spec, default_train_config(seed=0), tmp_path)

        def value(name, key):
            pairs = dict(line.split("=") for line in (tmp_path / name).read_text().splitlines())
            return float(pairs[key])

        assert report.gamma_pcv.method == "PCV"
        assert value("gamma_pcv.txt", "gamma") == report.gamma_pcv.value
        assert value("report.txt", "gamma_pcv") == report.gamma_pcv.value
