import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcal import (
    EmptyGroupError,
    GammaEstimate,
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    MlpModel,
    TrainConfig,
    TrainingError,
    ValidationError,
    acc_report,
    apply_gamma,
    estimate_gamma_alg,
    estimate_gamma_pcv,
    estimate_gamma_star,
    logit_gap_stats,
    predict_cosine,
    predict_restricted,
    seen_unseen_curve,
)
from ftcal import data
from ftcal.calibration import select_balanced_gamma
from ftcal.data import unit_rows
from ftcal.metrics import _group_stats
from ftcal.rng import derive_rng

from helpers import exact_accuracies, is_absent_label
from test_metrics import (
    grid_curve_points,
    random_instance,
    reference_acc_report,
    tie_instance,
    tie_instances,
)


def test_gamma_estimate_stores_a_float():
    gamma = GammaEstimate(np.float32(0.1), "MANUAL", {}).as_dict()["gamma"]
    assert type(gamma) is float
    assert gamma == float(np.float32(0.1))


class TestApplyGamma:
    def test_identity_at_zero(self):
        logits = LabeledLogits([[2.0, 1.0, 1.5]], [0])
        assert apply_gamma(logits, LabelPartition(3, (0, 1)), 0.0).tolist() == [0]

    def test_boost_flips_to_absent(self):
        logits = LabeledLogits([[2.0, 1.0, 1.5]], [0])
        assert apply_gamma(logits, LabelPartition(3, (0, 1)), 1.0).tolist() == [2]

    def test_exact_tie_takes_lowest_index(self):
        logits = LabeledLogits([[2.0, 1.0, 1.5]], [0])
        assert apply_gamma(logits, LabelPartition(3, (0, 1)), 0.5).tolist() == [0]

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_zero_gamma_equals_unrestricted_argmax(self, seed):
        logits, p = random_instance(seed)
        np.testing.assert_array_equal(
            apply_gamma(logits, p, 0.0), predict_restricted(logits, range(p.num_classes))
        )

    def test_rounding_collapse_keeps_raw_within_group_argmax(self):
        # Adding 2**54 rounds the absent logits 1 and 1 + 2**-52 to one
        # value, so the argmax of the adjusted matrix takes class 1; the
        # within-group choice stays the raw argmax, class 2.
        logits = LabeledLogits([[0.0, 1.0, 1.0 + 2**-52], [5.0, 0.0, 0.0]], [2, 0])
        p = LabelPartition(3, (0,))
        gamma = 2.0**54
        adjusted = logits.values + gamma * p.absent_column_mask()
        assert adjusted[0, 1] == adjusted[0, 2]
        assert np.argmax(adjusted, axis=1).tolist() == [1, 1]
        assert apply_gamma(logits, p, gamma).tolist() == [2, 1]
        assert acc_report(logits, p, gamma).acc_u_u == 1.0
        assert reference_acc_report(logits, p, gamma)["acc_u_u"] == 0.0

    def test_cross_group_rounding_follows_the_flip_value(self):
        # 1 + gamma rounds to 2, tying the seen logit in the adjusted
        # matrix, but the flip value 2 - 1 = 1 still exceeds gamma.
        logits = LabeledLogits([[1.0, 2.0]], [1])
        p = LabelPartition(2, (1,))
        gamma = 1.0 - 2.0**-53
        assert np.argmax(logits.values + gamma * p.absent_column_mask(), axis=1).tolist() == [0]
        assert apply_gamma(logits, p, gamma).tolist() == [1]

    def test_monotone_group_flip(self):
        # As gamma grows, each sample's predicted group switches from seen
        # to absent at most once.
        for seed in range(20):
            logits, p = random_instance(seed, max_n=12)
            umask = np.isin(np.arange(p.num_classes), p.group_indices("U"))
            gammas = np.linspace(-30, 30, 301)
            absent_side = np.stack(
                [np.isin(apply_gamma(logits, p, g), p.group_indices("U")) for g in gammas]
            )
            switches = np.abs(np.diff(absent_side.astype(int), axis=0)).sum(axis=0)
            assert np.all(switches <= 1)
            assert umask.sum() == p.num_classes - len(p.fine_tuning)

    def test_reclaim_solved_gamma(self):
        # Whenever the within-absent argmax already matches an absent
        # ground truth, some finite gamma reclaims the prediction.
        reclaimed = trials = 0
        for seed in range(200):
            logits, p = random_instance(seed, max_n=20)
            seen_cols = p.group_indices("S")
            absent_cols = p.group_indices("U")
            within_u = predict_restricted(logits, absent_cols)
            for i in range(logits.num_samples):
                label = int(logits.labels[i])
                if label not in absent_cols or within_u[i] != label:
                    continue
                trials += 1
                row = logits.values[i]
                solved = float(row[seen_cols].max() - row[absent_cols].max()) + 1.0
                one = LabeledLogits(row[None, :], [label])
                if apply_gamma(one, p, solved)[0] == label:
                    reclaimed += 1
        assert trials > 100
        assert reclaimed == trials


class TestAlg:
    def test_single_sample_formula(self):
        logits = LabeledLogits([[5.0, 1.0, 0.2]], [0])
        estimate = estimate_gamma_alg(logits, LabelPartition(3, (0, 1)))
        assert estimate.value == pytest.approx(1.0 - 0.2, abs=1e-15)
        assert estimate.method == "ALG"

    def test_identical_logits_give_zero(self):
        logits = LabeledLogits(np.full((5, 4), 2.5), [0, 1, 0, 1, 0])
        assert estimate_gamma_alg(logits, LabelPartition(4, (0, 1))).value == 0.0

    def test_two_sample_average(self):
        # per-sample gaps 0.8 and 0.4 average to 0.6
        logits = LabeledLogits([[5.0, 1.0, 0.2], [1.4, 7.0, 1.0]], [0, 1])
        estimate = estimate_gamma_alg(logits, LabelPartition(3, (0, 1)))
        assert estimate.value == pytest.approx(0.6, abs=1e-15)
        assert estimate.diagnostics["num_samples"] == 2

    def test_rejects_absent_labels_and_tiny_seen_sets(self):
        p = LabelPartition(3, (0, 1))
        with pytest.raises(ValidationError):
            estimate_gamma_alg(LabeledLogits([[1.0, 0.0, 0.0]], [2]), p)
        with pytest.raises(ValidationError):
            estimate_gamma_alg(LabeledLogits([[1.0, 0.0, 0.0]], [0]), LabelPartition(3, (0,)))

    def test_matches_gap_report_bitwise(self):
        rng = np.random.default_rng(11)
        p = LabelPartition(7, (0, 2, 4))
        labels = rng.choice([0, 2, 4], size=50)
        logits = LabeledLogits(rng.normal(size=(50, 7)), labels)
        mean_seen, mean_absent = logit_gap_stats(logits, p)
        assert estimate_gamma_alg(logits, p).value == mean_seen - mean_absent

    def test_shift_equivariance_is_exact_for_dyadic_values(self):
        # |S|-1 and |U| are powers of two and every value is dyadic, so the
        # shifted estimate differs by exactly delta.
        rng = np.random.default_rng(7)
        p = LabelPartition(9, (0, 1, 2, 3, 4))
        labels = rng.integers(0, 5, size=32)
        values = rng.integers(-128, 128, size=(32, 9)) / 16.0
        delta = 0.75
        base = estimate_gamma_alg(LabeledLogits(values, labels), p).value
        shifted = values.copy()
        shifted[:, 5:] -= delta
        moved = estimate_gamma_alg(LabeledLogits(shifted, labels), p).value
        assert moved == base + delta

    def test_null_distribution_bound(self):
        # i.i.d. logits: the estimate stays within 4 standard errors of 0
        # in at least 99% of seeds.
        inside = 0
        seeds = 300
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            p = LabelPartition(9, (0, 1, 2, 3, 4))
            labels = rng.integers(0, 5, size=64)
            logits = LabeledLogits(rng.normal(size=(64, 9)), labels)
            estimate = estimate_gamma_alg(logits, p)
            bound = 4.0 * estimate.diagnostics["gap_std"] / np.sqrt(64)
            inside += abs(estimate.value) <= bound
        assert inside / seeds >= 0.99


class TestGammaStar:
    def test_two_sample_instance(self):
        logits = LabeledLogits([[3.0, 0.0, 0.5], [1.0, 0.0, 0.5]], [0, 2])
        estimate = estimate_gamma_star(logits, LabelPartition(3, (0, 1)))
        assert estimate.diagnostics["acc_y_y"] == 1.0
        assert 0.5 < estimate.value <= 2.5

    def test_perfect_point_reaches_one(self):
        logits = LabeledLogits([[5.0, 0.0, 0.0], [0.0, 0.0, 5.0]], [0, 2])
        estimate = estimate_gamma_star(logits, LabelPartition(3, (0, 1)))
        assert estimate.diagnostics["acc_y_y"] == 1.0

    def test_matches_grid_maximization(self):
        for seed in range(15):
            logits, p = random_instance(seed, max_n=40)
            estimate = estimate_gamma_star(logits, p)
            curve = seen_unseen_curve(logits, p)
            t = curve.thresholds
            gammas = np.concatenate(
                [[t[0] - 1.0], (t[:-1] + t[1:]) / 2.0, [t[-1] + 1.0], np.linspace(t[0], t[-1], 999)]
            )
            gx, gy = grid_curve_points(logits.values, logits.labels, p, gammas)
            n_s, n_u = curve.num_seen, curve.num_absent
            grid_best = ((n_s * gx + n_u * gy) / (n_s + n_u)).max()
            assert estimate.diagnostics["acc_y_y"] >= grid_best - 1e-12

    def test_never_worse_than_uncalibrated(self):
        from ftcal import acc_report

        for seed in range(25):
            logits, p = random_instance(seed)
            estimate = estimate_gamma_star(logits, p)
            assert estimate.diagnostics["acc_y_y"] >= acc_report(logits, p).acc_y_y - 1e-12

    def test_empty_group(self):
        logits = LabeledLogits([[1.0, 0.0]], [0])
        with pytest.raises(EmptyGroupError):
            estimate_gamma_star(logits, LabelPartition(2, (0,)))


def realised(logits, p, gamma):
    """(Acc_{Y/Y}, Acc_{S/Y}, Acc_{U/Y}) at ``gamma``; ``acc_report`` must
    agree with the labels ``apply_gamma`` predicts."""
    report = acc_report(logits, p, gamma)
    hit = apply_gamma(logits, p, gamma) == logits.labels
    absent = is_absent_label(p, logits.labels)
    accs = (report.acc_y_y, report.acc_s_y, report.acc_u_y)
    assert accs == (hit.mean(), hit[~absent].mean(), hit[absent].mean())
    return accs


def exact_gamma_star_pick(accuracies):
    """The index of gamma* over exact accuracies: best overall, then best
    balance, then smallest gamma."""
    return max(
        range(len(accuracies)),
        key=lambda k: (accuracies[k][2], min(accuracies[k][:2]), -k),
    )


def as_floats(acc_s, acc_u, acc_y):
    """An exact (Acc_{S/Y}, Acc_{U/Y}, Acc_{Y/Y}) in ``realised``'s order."""
    return float(acc_y), float(acc_s), float(acc_u)


class TestReportedEqualsRealised:
    @given(tie_instances)
    @settings(max_examples=100, deadline=None)
    def test_gamma_star(self, instance):
        logits, p = tie_instance(*instance)
        estimate = estimate_gamma_star(logits, p)
        candidates = seen_unseen_curve(logits, p).candidate_gammas()
        exact = exact_accuracies(logits.values, logits.labels, p, candidates)
        best = exact_gamma_star_pick(exact)
        assert estimate.value == candidates[best]
        d = estimate.diagnostics
        assert (d["acc_y_y"], d["acc_s_y"], d["acc_u_y"]) == as_floats(*exact[best])
        assert realised(logits, p, estimate.value) == as_floats(*exact[best])

    @given(tie_instances)
    @settings(max_examples=100, deadline=None)
    def test_every_curve_point(self, instance):
        logits, p = tie_instance(*instance)
        curve = seen_unseen_curve(logits, p)
        overall = curve.acc_y_y()
        candidates = curve.candidate_gammas()
        exact = exact_accuracies(logits.values, logits.labels, p, candidates)
        for k, gamma in enumerate(candidates):
            assert (overall[k], *curve.points[k]) == as_floats(*exact[k])
            assert realised(logits, p, gamma) == as_floats(*exact[k])

    @given(tie_instances)
    @example((9, 1.0, True))  # gaps of exactly 1/12 on both sides of the pick
    @settings(max_examples=100, deadline=None)
    def test_balanced_pick(self, instance):
        logits, p = tie_instance(*instance)
        curve = seen_unseen_curve(logits, p)
        gamma, acc_seen, acc_absent = select_balanced_gamma(curve)
        candidates = curve.candidate_gammas()
        exact = exact_accuracies(logits.values, logits.labels, p, candidates)
        # the smallest exact gap, then the smallest gamma
        best = min(range(len(exact)), key=lambda k: (abs(exact[k][0] - exact[k][1]), k))
        assert gamma == candidates[best]
        accs = realised(logits, p, gamma)
        assert accs == as_floats(*exact[best])
        assert accs[1:] == (acc_seen, acc_absent)

    def test_pcv_per_repeat_picks(self, monkeypatch):
        import ftcal.calibration as calibration

        curves = []

        def recording_curve(logits, partition):
            curves.append((logits, partition))
            return seen_unseen_curve(logits, partition)

        monkeypatch.setattr(calibration, "seen_unseen_curve", recording_curve)
        features, model, partition = balanced_pcv_fixture(seed=2)
        config = TrainConfig(learning_rate=0.05, epochs=5, batch_size=16, seed=0)
        estimate = estimate_gamma_pcv(features, model, partition, config, repeats=3, seed=9)
        d = estimate.diagnostics
        assert len(curves) == 3
        for r, (logits, p) in enumerate(curves):
            assert realised(logits, p, d[f"gamma_{r}"])[1:] == (
                d[f"acc_pseudo_seen_{r}"],
                d[f"acc_pseudo_absent_{r}"],
            )


class TestPredictCosine:
    def test_row_scale_invariance(self):
        rng = np.random.default_rng(3)
        feats = LabeledFeatures(rng.normal(size=(20, 4)), rng.integers(0, 5, 20))
        weights = rng.normal(size=(5, 4))
        p = LabelPartition(5, (0, 1))
        base = predict_cosine(feats, LinearHead(weights), p, 0.3)
        scaled = weights * rng.uniform(0.1, 9.0, size=(5, 1))
        np.testing.assert_array_equal(base, predict_cosine(feats, LinearHead(scaled), p, 0.3))

    def test_feature_matching_weight_row_wins(self):
        weights = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5]])
        feats = LabeledFeatures([[2.0, 0.0]], [0])
        p = LabelPartition(3, (0, 1))
        assert predict_cosine(feats, LinearHead(weights), p, 0.0).tolist() == [0]

    def test_against_normalize_then_dot_oracle(self):
        rng = np.random.default_rng(9)
        feats = LabeledFeatures(rng.normal(size=(30, 6)), rng.integers(0, 4, 30))
        weights = rng.normal(size=(4, 6))
        p = LabelPartition(4, (0, 2))
        gamma = 0.4
        got = predict_cosine(feats, LinearHead(weights), p, gamma)
        expected = []
        for row in feats.values:
            sims = []
            for c in range(4):
                w = weights[c]
                sims.append(
                    float(row @ w / (np.linalg.norm(row) * np.linalg.norm(w)))
                    + (gamma if c in (1, 3) else 0.0)
                )
            expected.append(int(np.argmax(sims)))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("gamma", [0.05, 1e15, 1e16])
    def test_equals_apply_gamma_on_cosine_logits(self, gamma):
        # At huge gamma, cos + gamma collapses the absent columns; the
        # shared tie rule still picks the raw-cosine argmax within a group.
        rng = np.random.default_rng(0)
        feats = LabeledFeatures(rng.normal(size=(200, 4)), rng.integers(0, 6, 200))
        weights = rng.normal(size=(6, 4))
        p = LabelPartition(6, (0, 2, 4))
        unit_f = feats.values / np.linalg.norm(feats.values, axis=1)[:, None]
        unit_w = weights / np.linalg.norm(weights, axis=1)[:, None]
        cosines = LabeledLogits(unit_f @ unit_w.T, feats.labels)
        np.testing.assert_array_equal(
            predict_cosine(feats, LinearHead(weights), p, gamma), apply_gamma(cosines, p, gamma)
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(2, 5),
        st.integers(1, 3),
        st.integers(1, 4096),
    )
    @example(0, 1, 2, 1, 1)
    @settings(max_examples=200, deadline=None)
    def test_labels_of_apply_gamma_on_a_container_of_the_cosines(
        self, seed, num_rows, num_classes, dim, block_bytes
    ):
        # entries from {-2, ..., 2} tie often; rows scaled by 1e-150 to 1e150
        rng = np.random.default_rng(seed)
        values = rng.integers(-2, 3, size=(num_rows, dim)).astype(float)
        values[~values.any(axis=1), 0] = 1.0
        values *= 10.0 ** rng.integers(-150, 151, size=(num_rows, 1))
        weights = rng.integers(-2, 3, size=(num_classes, dim)).astype(float)
        weights[~weights.any(axis=1), -1] = -1.0
        seen = rng.permutation(num_classes)[: rng.integers(1, num_classes)]
        feats = LabeledFeatures(values, rng.integers(0, num_classes, num_rows))
        head = LinearHead(weights)
        p = LabelPartition(num_classes, tuple(seen.tolist()))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_BYTES", block_bytes)
            cosines = LabeledLogits(
                unit_rows(values, "feature") @ unit_rows(weights, "weight").T,
                np.zeros(num_rows, dtype=np.int64),
            )
            stats = _group_stats(cosines, p)
            flips = stats.max_s - stats.max_u
            gammas = np.concatenate(
                [flips, np.nextafter(flips, np.inf), np.nextafter(flips, -np.inf), [0.0, 1e16]]
            )
            for gamma in gammas:
                got = predict_cosine(feats, head, p, gamma)
                assert got.tolist() == apply_gamma(cosines, p, gamma).tolist()

    @pytest.mark.parametrize(
        "features, weights, partition, gamma, message",
        [
            ([[0.0, 0.0]], [[0.0, 0.0, 0.0]] * 3, (4, (0,)), np.nan, "head has 3 classes"),
            ([[0.0, 0.0]], [[0.0, 0.0, 0.0]] * 4, (4, (0,)), np.nan, "features have dim 2"),
            ([[1.0], [0.0]], [[0.0]] * 4, (4, (0,)), np.nan, "feature row 1 has zero norm"),
            ([[1.0]], [[0.0], [1.0]], (2, (0,)), np.inf, "weight row 0 has zero norm"),
            ([[1.0]], [[2.0], [1.0]], (2, (0,)), -np.inf, "gamma must be finite, got -inf"),
        ],
    )
    def test_first_failing_check_names_the_error(
        self, features, weights, partition, gamma, message
    ):
        feats = LabeledFeatures(features, [0] * len(features))
        with pytest.raises(ValidationError, match=f"^{message}"):
            predict_cosine(feats, LinearHead(weights), LabelPartition(*partition), gamma)

    def test_no_second_copy_of_the_cosine_matrix(self):
        rng = np.random.default_rng(11)
        feats = LabeledFeatures(rng.normal(size=(2000, 64)), rng.integers(0, 1000, 2000))
        head = LinearHead(rng.normal(size=(1000, 64)))
        p = LabelPartition(1000, tuple(range(0, 1000, 2)))
        tracemalloc.start()
        try:
            predict_cosine(feats, head, p, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cosines = feats.num_samples * head.num_classes * 8
        unit = feats.values.nbytes + head.weights.nbytes
        # no room for a second 2000 x 1000 array (16 MB)
        assert peak < cosines + unit + 2 * data._BLOCK_BYTES, f"peak {peak} B"

    def test_zero_norm_rows_are_named(self):
        p = LabelPartition(2, (0,))
        with pytest.raises(ValidationError, match="feature row 1"):
            predict_cosine(
                LabeledFeatures([[1.0, 0.0], [0.0, 0.0]], [0, 0]),
                LinearHead(np.eye(2)),
                p,
                0.0,
            )
        with pytest.raises(ValidationError, match="weight row 0"):
            predict_cosine(
                LabeledFeatures([[1.0, 0.0]], [0]),
                LinearHead([[0.0, 0.0], [0.0, 1.0]]),
                p,
                0.0,
            )


def balanced_pcv_fixture(seed=0, num_classes=8, per_class=40, dim=3):
    """Features well separated per class; head rows point at the class
    means, so the frozen (lr=0) model is already balanced."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 4.0, size=(num_classes, dim))
    rows, labels = [], []
    for c in range(num_classes):
        rows.append(means[c] + 0.1 * rng.standard_normal((per_class, dim)))
        labels.append(np.full(per_class, c))
    seen = tuple(range(6))
    mask = np.concatenate(labels) < 6
    features = LabeledFeatures(np.vstack(rows)[mask], np.concatenate(labels)[mask])
    model = MlpModel(
        hidden_map=np.eye(dim),
        head=LinearHead(means / np.linalg.norm(means, axis=1, keepdims=True)),
        activation="linear",
    )
    return features, model, LabelPartition(num_classes, seen)


class TestPcv:
    def test_balanced_model_yields_small_gamma(self):
        features, model, partition = balanced_pcv_fixture()
        config = TrainConfig(learning_rate=0.0, epochs=1, batch_size=32, seed=0)
        estimate = estimate_gamma_pcv(features, model, partition, config, repeats=1, seed=5)
        assert estimate.diagnostics["acc_pseudo_seen_0"] == estimate.diagnostics[
            "acc_pseudo_absent_0"
        ]
        # balanced accuracies are reached within the margin scale of the data
        assert abs(estimate.value) < 1.0

    def test_deterministic_across_runs(self):
        features, model, partition = balanced_pcv_fixture(seed=2)
        config = TrainConfig(learning_rate=0.05, epochs=5, batch_size=16, seed=0)
        a = estimate_gamma_pcv(features, model, partition, config, repeats=3, seed=9)
        b = estimate_gamma_pcv(features, model, partition, config, repeats=3, seed=9)
        assert a == b
        assert a.value == np.mean([a.diagnostics[f"gamma_{r}"] for r in range(3)])

    def test_deterministic_on_toy_features(self):
        # A wider toy variant (the default has too few fine-tuning classes
        # for PCV): three repeats reproduce bit for bit under one seed.
        from ftcal import ToySpec, gen_toy_data, fine_tune, forward_batch

        spec = ToySpec(
            class_means=tuple((10.0, 1.5 * c) for c in range(8)),
            shift=(0.5, -0.5) * 4,
            samples_per_class=30,
            fine_tuning=(0, 1, 2, 3),
        )
        pretraining, target = gen_toy_data(spec, seed=5)
        base = MlpModel(np.eye(2), LinearHead(np.zeros((8, 2))))
        pretrained, _ = fine_tune(
            base, pretraining, range(8), TrainConfig(0.01, epochs=30, batch_size=32, seed=1)
        )
        mask = np.isin(target.labels, (0, 1, 2, 3))
        features = LabeledFeatures(target.values[mask], target.labels[mask])
        partition = LabelPartition(8, (0, 1, 2, 3))
        config = TrainConfig(0.01, epochs=10, batch_size=32, seed=0)
        a = estimate_gamma_pcv(features, pretrained, partition, config, repeats=3, seed=77)
        b = estimate_gamma_pcv(features, pretrained, partition, config, repeats=3, seed=77)
        assert a == b
        assert [a.diagnostics[f"gamma_{r}"] for r in range(3)] == [
            b.diagnostics[f"gamma_{r}"] for r in range(3)
        ]
        assert forward_batch(pretrained, features.values)[1].shape == (features.num_samples, 8)

    def test_uniform_logit_inflation_is_recovered_by_selection(self):
        # When pseudo-seen logits are inflated by exactly delta, the
        # balancing gamma sits within one curve step of delta.
        rng = np.random.default_rng(4)
        delta = 3.0
        n, c = 120, 6
        p = LabelPartition(c, (0, 1, 2))
        labels = np.concatenate([rng.integers(0, 3, n // 2), rng.integers(3, 6, n // 2)])
        values = rng.normal(0.0, 1.0, size=(n, c))
        values[np.arange(n), labels] += 2.0  # make within-group predictions decent
        values[:, :3] += delta
        curve = seen_unseen_curve(LabeledLogits(values, labels), p)
        gamma, _, _ = select_balanced_gamma(curve)
        step = np.diff(curve.thresholds).max()
        assert abs(gamma - delta) <= step + 1e-12

    def test_precondition_errors(self):
        features, model, _ = balanced_pcv_fixture()
        config = TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, seed=0)
        with pytest.raises(ValidationError):
            estimate_gamma_pcv(features, model, LabelPartition(8, (0, 1, 2)), config)
        with pytest.raises(ValidationError):
            features_big, model_big, partition_big = balanced_pcv_fixture()
            estimate_gamma_pcv(
                features_big, model_big, partition_big, config, repeats=0
            )

    def test_labels_outside_the_fine_tuning_classes_are_refused(self):
        features, model, partition = balanced_pcv_fixture()  # labels 0..5 of 8, 0..5 seen
        labels = np.where(features.labels == 5, 7, features.labels)
        config = TrainConfig(learning_rate=0.0, epochs=1, batch_size=8, seed=0)
        message = "PCV training data must be labeled within the fine-tuning classes"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            estimate_gamma_pcv(LabeledFeatures(features.values, labels), model, partition, config)

    def test_empty_pseudo_validation_names_the_repeat(self):
        # four rows per class all train: ceil(0.8 * 4) = 4
        features, model, partition = balanced_pcv_fixture(per_class=4)
        config = TrainConfig(learning_rate=0.0, epochs=1, batch_size=8, seed=0)
        with pytest.raises(ValidationError, match=r"^repeat 0: pseudo-validation split is empty$"):
            estimate_gamma_pcv(features, model, partition, config, repeats=1, seed=1)

    @pytest.mark.parametrize("fine_tuned", [True, False])
    def test_a_pseudo_group_without_samples_names_the_repeat(self, fine_tuned):
        # Every row is of class 0. Fine-tuning the pseudo subset that holds it
        # leaves the other subset no validation sample; fine-tuning the other
        # subset leaves no training sample.
        features, model, partition = balanced_pcv_fixture(per_class=5)
        rows = features.labels == 0
        only_zero = LabeledFeatures(features.values[rows], features.labels[rows])
        config = TrainConfig(learning_rate=0.0, epochs=1, batch_size=8, seed=0)
        seed = 4
        zero_pseudo_seen = 0 in derive_rng(seed, 0, 1).permutation(6)[:3]
        with pytest.raises(ValidationError) as info:
            estimate_gamma_pcv(only_zero, model, partition, config, repeats=1, seed=seed,
                               finetune_on_pseudo_absent=zero_pseudo_seen != fine_tuned)
        if fine_tuned:
            assert type(info.value) is EmptyGroupError
            group = "U" if zero_pseudo_seen else "S"
            assert str(info.value) == f"repeat 0: no samples labeled in group {group}"
        else:
            assert str(info.value) == "repeat 0: no pseudo-training samples to fine-tune on"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_training_failure_names_the_repeat(self):
        features, model, partition = balanced_pcv_fixture()
        config = TrainConfig(learning_rate=1e300, epochs=2, batch_size=8, seed=0)
        with pytest.raises(TrainingError, match="repeat 0"):
            estimate_gamma_pcv(features, model, partition, config, repeats=1, seed=1)

    def test_swapped_convention_flag_changes_the_run(self):
        features, model, partition = balanced_pcv_fixture(seed=3)
        config = TrainConfig(learning_rate=0.05, epochs=5, batch_size=16, seed=0)
        normal = estimate_gamma_pcv(features, model, partition, config, repeats=2, seed=3)
        swapped = estimate_gamma_pcv(
            features, model, partition, config, repeats=2, seed=3, finetune_on_pseudo_absent=True
        )
        assert normal != swapped
