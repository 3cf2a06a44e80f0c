import numpy as np
import pytest

from ftcal import (
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


def random_model(seed, dim_in=3, dim_hidden=3, num_classes=4, activation="linear"):
    rng = np.random.default_rng(seed)
    return MlpModel(
        hidden_map=rng.normal(size=(dim_hidden, dim_in)),
        head=LinearHead(rng.normal(size=(num_classes, dim_hidden))),
        activation=activation,
    )


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
