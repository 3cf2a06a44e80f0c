import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftcal import (
    EmptyGroupError,
    LabeledLogits,
    LabelPartition,
    ValidationError,
    acc_report,
    accuracy,
    ausuc,
    decompose,
    format_curve_csv,
    predict_restricted,
    seen_unseen_curve,
)
from ftcal import io


def random_instance(seed, max_n=60, max_c=10):
    """Random logits, labels and a partition; both groups populated."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(3, max_c + 1))
    k = int(rng.integers(1, c))
    partition = LabelPartition(c, tuple(np.sort(rng.permutation(c)[:k]).tolist()))
    n = int(rng.integers(4, max_n + 1))
    labels = np.concatenate(
        [
            rng.choice(partition.group_indices("S"), size=max(1, n // 2)),
            rng.choice(partition.group_indices("U"), size=max(1, n - n // 2)),
        ]
    )
    values = rng.normal(0.0, 2.0, size=(labels.size, c))
    return LabeledLogits(values, labels), partition


def tie_instance(seed, scale, quantised):
    """Random logits at ``scale`` under a random partition (seen classes
    anywhere in the label space); quantised logits (multiples of 1/16)
    give exact ties within and across groups and between flip values."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 9))
    k = int(rng.integers(1, c))
    partition = LabelPartition(c, tuple(rng.permutation(c)[:k].tolist()))
    n = int(rng.integers(2, 50))
    labels = rng.integers(0, c, size=n)
    labels[0] = rng.choice(partition.group_indices("S"))
    labels[1] = rng.choice(partition.group_indices("U"))
    if quantised:
        values = rng.integers(-24, 25, size=(n, c)) / 16.0 * scale
    else:
        values = rng.normal(0.0, 2.0, size=(n, c)) * scale
    return LabeledLogits(values, labels), partition


tie_instances = st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]), st.booleans()
)


def reference_acc_report(logits, partition, gamma=0.0):
    """The five Acc_{A/B} values as five ``accuracy`` calls on the
    gamma-adjusted logits."""
    adjusted = LabeledLogits(
        logits.values + gamma * partition.absent_column_mask(), logits.labels
    )
    return {
        f"acc_{a.lower()}_{b.lower()}": accuracy(adjusted, partition, a, b)
        for a, b in (("Y", "Y"), ("S", "Y"), ("U", "Y"), ("S", "S"), ("U", "U"))
    }


class TestPredictRestricted:
    def test_unrestricted(self):
        logits = LabeledLogits([[2.0, 1.0, 1.5]], [0])
        assert predict_restricted(logits, {0, 1, 2}).tolist() == [0]

    def test_restriction_changes_winner(self):
        logits = LabeledLogits([[2.0, 1.0, 1.5]], [0])
        assert predict_restricted(logits, {1, 2}).tolist() == [2]

    def test_tie_takes_lowest_index(self):
        logits = LabeledLogits([[1.0, 1.0, 0.0]], [0])
        assert predict_restricted(logits, {0, 1}).tolist() == [0]

    def test_empty_restriction(self):
        logits = LabeledLogits([[1.0, 0.0]], [0])
        with pytest.raises(ValidationError, match="^restriction must be nonempty$"):
            predict_restricted(logits, set())

    def test_repeated_classes_are_merged(self):
        logits = LabeledLogits([[2.0, 1.0, 1.5]], [0])
        assert predict_restricted(logits, [2, 1, 2, 1]).tolist() == [2]

    def test_non_integral_class_index_rejected(self):
        logits = LabeledLogits([[2.0, 1.0, 1.5]], [0])
        with pytest.raises(ValidationError, match="class index 1.5 is not an integer"):
            predict_restricted(logits, [1.5, 2.9])
        for two in (2, np.int64(2), 2.0):
            assert predict_restricted(logits, (1, two)).tolist() == [2]


class TestAccuracy:
    def test_hand_enumeration_all_correct(self):
        logits = LabeledLogits([[3.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0, 2])
        p = LabelPartition(3, (0, 1))
        assert accuracy(logits, p, "S", "Y") == 1.0
        assert accuracy(logits, p, "U", "Y") == 1.0

    def test_hand_enumeration_absent_buried(self):
        logits = LabeledLogits([[3.0, 0.0, 0.0], [1.0, 0.0, 0.5]], [0, 2])
        p = LabelPartition(3, (0, 1))
        assert accuracy(logits, p, "U", "Y") == 0.0  # sample 2 lands on class 0
        assert accuracy(logits, p, "U", "U") == 1.0

    def test_argmax_labels_give_one(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(20, 5))
        logits = LabeledLogits(values, np.argmax(values, axis=1))
        assert accuracy(logits, LabelPartition(5, (0, 1)), "Y", "Y") == 1.0

    def test_empty_group_is_an_error(self):
        logits = LabeledLogits([[1.0, 0.0, 0.0]], [0])
        with pytest.raises(EmptyGroupError):
            accuracy(logits, LabelPartition(3, (0, 1)), "U", "Y")

    @given(tie_instances)
    @settings(max_examples=200, deadline=None)
    def test_acc_report_equals_five_accuracy_calls_at_zero(self, instance):
        logits, p = tie_instance(*instance)
        report = acc_report(logits, p).as_dict()
        assert {key: report[key] for key in report if key.startswith("acc")} == (
            reference_acc_report(logits, p)
        )

    def test_restriction_never_loses_correct_predictions(self):
        for seed in range(30):
            logits, p = random_instance(seed)
            gamma = float(np.random.default_rng(seed).normal(0, 3))
            report = acc_report(logits, p, gamma=gamma)
            assert report.acc_u_u >= report.acc_u_y
            assert report.acc_s_s >= report.acc_s_y


class TestDecompose:
    def test_uniform_logits_split_evenly(self):
        p = LabelPartition(4, (0, 1))
        p_absent, within_s, within_u = decompose([1.0, 1.0, 1.0, 1.0], p)
        assert p_absent == 0.5
        np.testing.assert_allclose(within_s, [0.5, 0.5])
        np.testing.assert_allclose(within_u, [0.5, 0.5])

    def test_dominant_absent_logit(self):
        p = LabelPartition(3, (0, 1))
        p_absent, _, _ = decompose([0.0, 0.0, 20.0], p)
        assert abs(p_absent - 1.0) < 1e-8

    def test_no_group_underflows_at_large_scale(self):
        p_absent, within_s, within_u = decompose([0.0, 1.0, 1000.0, 999.0], LabelPartition(4, (0, 1)))
        assert p_absent == 1.0
        assert within_s.tolist() == within_u[::-1].tolist()
        assert np.all(np.isfinite(within_s))

    @given(st.integers(0, 10_000), st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e2, 1e3]))
    @settings(max_examples=200, deadline=None)
    def test_within_group_parts_are_each_groups_softmax(self, seed, scale):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(2, 40))
        p = LabelPartition(c, tuple(np.sort(rng.permutation(c)[: int(rng.integers(1, c))]).tolist()))
        row = rng.normal(0.0, 3.0, size=c) * scale
        _, within_s, within_u = decompose(row, p)
        for within, cols in ((within_s, p.group_indices("S")), (within_u, p.group_indices("U"))):
            assert np.all(np.isfinite(within))
            assert abs(within.sum() - 1.0) <= 1e-12
            # the group's own softmax, its exponentials added in ascending column order
            shifted = np.exp(row[cols] - row[cols].max())
            total = 0.0
            for term in shifted:
                total += term
            assert within.tolist() == (shifted / total).tolist()

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_identity(self, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(3, 12))
        k = int(rng.integers(1, c))
        p = LabelPartition(c, tuple(np.sort(rng.permutation(c)[:k]).tolist()))
        row = rng.normal(0.0, 3.0, size=c)
        p_absent, within_s, within_u = decompose(row, p)
        # independent direct softmax
        z = np.exp(row - row.max())
        softmax = z / z.sum()
        seen, absent = p.group_indices("S"), p.group_indices("U")
        np.testing.assert_allclose(p_absent * within_u, softmax[absent], atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            (1.0 - p_absent) * within_s, softmax[seen], atol=1e-12, rtol=0
        )


def grid_curve_points(values, labels, partition, gammas):
    """Accuracy pairs at each gamma, via direct group-max comparison."""
    seen_cols = partition.group_indices("S")
    absent_cols = partition.group_indices("U")
    max_s = values[:, seen_cols].max(axis=1)
    max_u = values[:, absent_cols].max(axis=1)
    pred_s = seen_cols[np.argmax(values[:, seen_cols], axis=1)]
    pred_u = absent_cols[np.argmax(values[:, absent_cols], axis=1)]
    in_s = np.isin(labels, seen_cols)
    n_s, n_u = int(in_s.sum()), int((~in_s).sum())
    absent_side = max_u[None, :] + np.asarray(gammas)[:, None] > max_s[None, :]
    correct_s = (~absent_side) & (pred_s == labels)[None, :] & in_s[None, :]
    correct_u = absent_side & (pred_u == labels)[None, :] & (~in_s)[None, :]
    return correct_s.sum(axis=1) / n_s, correct_u.sum(axis=1) / n_u


def grid_area(x, y):
    """Area dominated by the sampled points (independent of the package)."""
    width = x - np.append(x[1:], 0.0)
    return float(np.sum(y * width))


class TestSeenUnseenCurve:
    def test_two_sample_hand_instance(self):
        # seen sample flips at 3 - 0.5 = 2.5; absent sample at 1 - 0.5 = 0.5
        logits = LabeledLogits([[3.0, 0.0, 0.5], [1.0, 0.0, 0.5]], [0, 2])
        p = LabelPartition(3, (0, 1))
        curve = seen_unseen_curve(logits, p)
        assert curve.thresholds.tolist() == [0.5, 2.5]
        assert curve.points.tolist() == [[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
        assert curve.within_group_acc == (1.0, 1.0)
        assert ausuc(curve) == 1.0

    def test_flip_definition_on_plain_rows(self):
        logits = LabeledLogits([[3.0, 0.0, 0.0], [1.0, 0.0, 0.5]], [0, 2])
        curve = seen_unseen_curve(logits, LabelPartition(3, (0, 1)))
        assert curve.thresholds.tolist() == [0.5, 3.0]

    def test_anti_correlated_instance_stays_on_axes(self):
        # The seen sample leaves group S (gamma > 1) before the absent
        # sample enters group U (gamma > 2): no gamma wins both.
        logits = LabeledLogits([[1.0, 0.0], [2.0, 0.0]], [0, 1])
        p = LabelPartition(2, (0,))
        curve = seen_unseen_curve(logits, p)
        assert all(x == 0.0 or y == 0.0 for x, y in curve.points)
        assert ausuc(curve) == 0.0
        gammas = np.linspace(curve.thresholds[0] - 1, curve.thresholds[-1] + 1, 2001)
        gx, gy = grid_curve_points(logits.values, logits.labels, p, gammas)
        assert np.all((gx == 0.0) | (gy == 0.0))

    def test_all_absent_misclassified_within_group(self):
        logits = LabeledLogits([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], [0, 2])
        p = LabelPartition(4, (0, 1))
        curve = seen_unseen_curve(logits, p)
        assert curve.within_group_acc[1] == 0.0
        assert np.all(curve.points[:, 1] == 0.0)

    def test_requires_both_groups(self):
        logits = LabeledLogits([[1.0, 0.0]], [0])
        with pytest.raises(EmptyGroupError):
            seen_unseen_curve(logits, LabelPartition(2, (0,)))

    def test_monotone_in_gamma(self):
        for seed in range(50):
            logits, p = random_instance(seed)
            curve = seen_unseen_curve(logits, p)
            assert np.all(np.diff(curve.points[:, 1]) >= 0)
            assert np.all(np.diff(curve.points[:, 0]) <= 0)
            assert curve.points[0].tolist() == [curve.within_group_acc[0], 0.0]
            assert curve.points[-1].tolist() == [0.0, curve.within_group_acc[1]]

    def test_matches_grid_evaluation_pointwise(self):
        # Compare at interval interiors; at the thresholds themselves the
        # reconstruction max_u + gamma can differ from max_s by one ulp.
        for seed in range(10):
            logits, p = random_instance(seed)
            curve = seen_unseen_curve(logits, p)
            t = curve.thresholds
            gammas = np.concatenate([[t[0] - 1.0], (t[:-1] + t[1:]) / 2.0, [t[-1] + 1.0]])
            gx, gy = grid_curve_points(logits.values, logits.labels, p, gammas)
            np.testing.assert_array_equal(gx, curve.points[:, 0])
            np.testing.assert_array_equal(gy, curve.points[:, 1])

    def test_candidate_gammas_lie_strictly_inside_intervals(self):
        for seed in range(30):
            logits, p = random_instance(seed)
            curve = seen_unseen_curve(logits, p)
            t, g = curve.thresholds, curve.candidate_gammas()
            assert g.size == curve.points.shape[0] == t.size + 1
            assert g[0] < t[0] and g[-1] > t[-1]
            assert np.all((t[:-1] < g[1:-1]) & (g[1:-1] < t[1:]))

    def test_candidate_gammas_at_ulp_adjacent_and_huge_thresholds(self):
        # No float lies between ulp-adjacent thresholds: the right one
        # serves. Beyond 2**53, t - 1 and t + 1 round back onto t.
        one_up = np.nextafter(1.0, 2.0)
        logits = LabeledLogits([[1.0, 0.0], [one_up, 0.0]], [0, 1])
        curve = seen_unseen_curve(logits, LabelPartition(2, (0,)))
        assert curve.candidate_gammas().tolist() == [0.0, one_up, 2.0]
        # Absent class 0 has the lower index, so at gamma = one_up the
        # sample flipping there is tied and goes absent: the point between
        # the two thresholds is the one realised there.
        logits = LabeledLogits([[0.0, 1.0], [0.0, one_up]], [1, 0])
        p = LabelPartition(2, (1,))
        curve = seen_unseen_curve(logits, p)
        assert curve.candidate_gammas()[1] == one_up
        assert curve.points.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        report = acc_report(logits, p, one_up)
        assert (report.acc_s_y, report.acc_u_y) == (0.0, 1.0)
        logits = LabeledLogits([[1e17, 0.0], [3e17, 0.0]], [0, 1])
        g = seen_unseen_curve(logits, LabelPartition(2, (0,))).candidate_gammas()
        assert g.tolist() == [np.nextafter(1e17, 0.0), 2e17, np.nextafter(3e17, np.inf)]


class TestAusuc:
    def test_zero_when_absent_never_correct(self):
        logits = LabeledLogits([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], [0, 2])
        assert ausuc(seen_unseen_curve(logits, LabelPartition(4, (0, 1)))) == 0.0

    def test_matches_dense_grid_oracle(self):
        for seed in range(10):
            logits, p = random_instance(seed, max_n=50)
            curve = seen_unseen_curve(logits, p)
            lo, hi = curve.thresholds[0] - 1.0, curve.thresholds[-1] + 1.0
            gammas = np.linspace(lo, hi, 20_001)
            gx, gy = grid_curve_points(logits.values, logits.labels, p, gammas)
            assert abs(ausuc(curve) - grid_area(gx, gy)) < 1e-3

    def test_shift_invariance_per_sample(self):
        # Dyadic logits and integer shifts keep the arithmetic exact, so
        # the areas must agree bit for bit.
        rng = np.random.default_rng(5)
        values = rng.integers(-64, 64, size=(40, 6)) / 16.0
        labels = np.concatenate([rng.integers(0, 3, 20), rng.integers(3, 6, 20)])
        p = LabelPartition(6, (0, 1, 2))
        before = ausuc(seen_unseen_curve(LabeledLogits(values, labels), p))
        shifted = values + rng.integers(-5, 6, size=(40, 1)).astype(float)
        after = ausuc(seen_unseen_curve(LabeledLogits(shifted, labels), p))
        assert before == after


def spelling_curve(seed):
    """A random curve at a scale from 1e-3 to 1e3 whose thresholds include
    float32 ties, flips of both zeros and ulp-adjacent pairs."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 9))
    partition = LabelPartition(c, tuple(rng.permutation(c)[: int(rng.integers(1, c))].tolist()))
    seen, absent = partition.group_indices("S"), partition.group_indices("U")
    n = int(rng.integers(6, 80))
    scale = 10.0 ** rng.uniform(-3, 3)
    values = (rng.normal(size=(n, c)) * scale).astype(np.float32).astype(np.float64)
    zeros = rng.random((n, c)) < 0.2
    values[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    # two rows whose seen logits are all zero flip at -t and -nextafter(t)
    t = values[0, absent[0]]
    values[-2:, seen] = 0.0
    values[-2:, absent] = np.minimum(values[-2:, absent], t)
    values[-2, absent[0]], values[-1, absent[0]] = t, np.nextafter(t, np.inf)
    labels = rng.integers(0, c, size=n)
    labels[:2] = rng.choice(seen), rng.choice(absent)
    return seen_unseen_curve(LabeledLogits(values, labels), partition)


def reference_curve_csv(curve):
    """The curve CSV spelled value by value: the header, then each
    interval's left endpoint (-inf first) and accuracy pair, each number in
    17 significant digits and a zero as 0."""

    def spell(x):
        return "-inf" if x == -np.inf else "0" if x == 0 else "%.17g" % x

    lines = ["gamma_threshold,acc_s_y,acc_u_y"]
    for left, (acc_s, acc_u) in zip([-np.inf, *curve.thresholds.tolist()], curve.points.tolist()):
        lines.append(",".join(map(spell, (left, acc_s, acc_u))))
    return "\n".join(lines) + "\n"


class TestCurveCsv:
    def test_numbers_are_spelled_value_by_value(self):
        adjacent = zero = 0
        for seed in range(300):
            curve = spelling_curve(seed)
            t = curve.thresholds
            adjacent += bool(np.any(np.nextafter(t[:-1], np.inf) == t[1:]))
            zero += bool(np.any(t == 0))
            assert format_curve_csv(curve) == reference_curve_csv(curve)
        assert adjacent > 100 and zero > 100

    @pytest.mark.parametrize("seed", range(5))
    def test_the_body_round_trips_as_a_matrix(self, seed, tmp_path):
        body = format_curve_csv(spelling_curve(seed)).split("\n", 1)[1]
        (tmp_path / "body.csv").write_text(body)
        io.save_matrix(io.load_matrix(tmp_path / "body.csv"), tmp_path / "saved.csv")
        assert (tmp_path / "saved.csv").read_text().split("\n", 1)[1] == body

    def test_header_and_sentinel(self):
        logits = LabeledLogits([[3.0, 0.0, 0.5], [1.0, 0.0, 0.5]], [0, 2])
        text = format_curve_csv(seen_unseen_curve(logits, LabelPartition(3, (0, 1))))
        lines = text.strip().split("\n")
        assert lines[0] == "gamma_threshold,acc_s_y,acc_u_y"
        assert lines[1].startswith("-inf,")
        assert len(lines) == 4  # header + 3 intervals

    def test_zero_threshold_is_positive_in_every_row_order(self):
        # flips 0.0 - -0.0 = +0.0 and -0.0 - 0.0 = -0.0 are one threshold;
        # which zero a sort keeps depends on the order of the rows
        rows = np.array([[0.0, -0.0], [-0.0, 0.0]] * 4 + [[1.0, 0.0], [0.0, 2.0]])
        labels = np.array([0, 1] * 5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            order = rng.permutation(labels.size)
            logits = LabeledLogits(rows[order], labels[order])
            curve = seen_unseen_curve(logits, LabelPartition(2, (0,)))
            assert curve.thresholds.tolist() == [-2.0, 0.0, 1.0]
            assert not np.signbit(curve.thresholds[1])
            assert format_curve_csv(curve).splitlines()[3].startswith("0,")
