import decimal
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcal import (
    DegenerateInputError,
    EmptyGroupError,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    ValidationError,
    absent_binary_prob,
    decompose,
    delta_w_similarity,
    estimate_gamma_alg,
    gt_vs_top_nongt_absent,
    linear_cka,
    logit_gap_stats,
    weight_norms,
)


def cka_oracle(a, b):
    """Linear CKA in 60-digit decimal arithmetic, rounded to a float once.

    The unit rows, the Gram matrices, their centring (H K H, entry by entry:
    K_ij minus the means of row i and column j plus the grand mean) and the
    HSIC sums trace(K H L H) / (n - 1)^2 are all exact to far below the
    tests' tolerance, so no float cancellation in the oracle can fail them.
    """
    with decimal.localcontext() as context:
        context.prec = 60

        def centred_gram(matrix):
            rows = [[Decimal(v) for v in row] for row in np.asarray(matrix, float).tolist()]
            rows = [[v / sum(x * x for x in row).sqrt() for v in row] for row in rows]
            gram = [[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]
            n = len(gram)
            means = [sum(row) / n for row in gram]  # of rows and, by symmetry, of columns
            grand = sum(means) / n
            return [[gram[i][j] - means[i] - means[j] + grand for j in range(n)] for i in range(n)]

        ka, kb = centred_gram(a), centred_gram(b)
        scale = (len(ka) - 1) ** 2

        def hsic(k, l):
            return sum(x * y for row_k, row_l in zip(k, l) for x, y in zip(row_k, row_l)) / scale

        return float(hsic(ka, kb) / (hsic(ka, ka) * hsic(kb, kb)).sqrt())


class TestLinearCka:
    def test_self_similarity_is_one(self):
        for seed in range(10):
            a = np.random.default_rng(seed).normal(size=(6, 4))
            assert abs(linear_cka(a, a) - 1.0) < 1e-12

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(7, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        assert abs(linear_cka(a, a @ q) - 1.0) < 1e-9

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=(5, 3))
            b = rng.normal(size=(5, 3))
            assert abs(linear_cka(a, b) - cka_oracle(a, b)) < 1e-10

    def test_symmetry_and_scaling_invariance(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        assert linear_cka(a, b) == pytest.approx(linear_cka(b, a), abs=1e-12)
        assert linear_cka(3.7 * a, b) == pytest.approx(linear_cka(a, b), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            value = linear_cka(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
            assert -1e-9 <= value <= 1.0 + 1e-9

    def test_identical_rows_are_degenerate(self):
        for row, n in (([1.0, 2.0, 0.5], 4), ([1.0, 2.0, 0.5, -3.0, 0.25], 3)):  # n > d, n <= d
            a = np.tile(row, (n, 1))
            with pytest.raises(DegenerateInputError):
                linear_cka(a, np.random.default_rng(0).normal(size=(n, len(row))))

    def test_needs_two_rows(self):
        with pytest.raises(ValidationError):
            linear_cka(np.ones((1, 3)), np.ones((1, 3)))


def _gram_form_cka(a, b):
    """The n x n Gram form ``linear_cka`` keeps for n <= d, step for step:
    unit rows, columns centred once, two Grams, three sums over ``scale``."""
    a = a / np.linalg.norm(a, axis=1)[:, None]
    b = b / np.linalg.norm(b, axis=1)[:, None]
    a -= a.mean(axis=0)
    b -= b.mean(axis=0)
    ka, kb = a @ a.T, b @ b.T
    scale = (a.shape[0] - 1) ** 2
    hsic_ab = float((ka * kb).sum()) / scale
    hsic_aa = float((ka * ka).sum()) / scale
    hsic_bb = float((kb * kb).sum()) / scale
    return float(hsic_ab / np.sqrt(hsic_aa * hsic_bb))


@st.composite
def cka_pairs(draw):
    """Two weight sets of unequal widths, with rows at scales 1e-3 to 1e3 and
    a row count on either side of the wider width."""
    dims = draw(st.lists(st.integers(2, 9), min_size=2, max_size=2, unique=True))
    widest = max(dims)
    column_form = draw(st.booleans())
    n = draw(st.integers(widest + 1, widest + 12) if column_form else st.integers(2, widest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = (
        rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1)) for d in dims
    )
    return a, b


class TestLinearCkaForms:
    """Column-centred HSIC when rows outnumber columns, the Gram form otherwise."""

    @given(cka_pairs())
    @example(  # nearly parallel rows: the CKA of any two rows is 1
        (np.array([[-5.468, 8.908], [-7.189, 11.719]]), np.array([[1.0, 2.0, 3.0], [-2.0, 0.5, 1.0]]))
    )
    @settings(max_examples=200, deadline=None)
    def test_both_forms_match_the_oracle(self, pair):
        a, b = pair
        assert abs(linear_cka(a, b) - cka_oracle(a, b)) < 1e-10
        assert abs(linear_cka(a, a) - 1.0) < 1e-12
        assert abs(linear_cka(b, b) - 1.0) < 1e-12

    @pytest.mark.parametrize("n, d_a, d_b", [(2, 2, 2), (3, 3, 2), (4, 8, 8), (4, 8, 3)])
    def test_rows_up_to_the_width_keep_the_gram_form_bit_for_bit(self, n, d_a, d_b):
        rng = np.random.default_rng(n * 100 + d_a * 10 + d_b)
        for _ in range(20):
            a, b = rng.normal(size=(n, d_a)), rng.normal(size=(n, d_b))
            assert linear_cka(a, b) == _gram_form_cka(a, b)

    @pytest.mark.parametrize(
        "seed, n, d", [(11, 4000, 64), (12, 600, 600)],
        ids=["rows-outnumber-columns", "rows-reach-the-width"],
    )
    def test_peak_stays_below_three_times_the_inputs(self, seed, n, d):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(n, d)), rng.normal(size=(n, d))  # 4 MB, 5.8 MB in all
        tracemalloc.start()
        try:
            linear_cka(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 4000 x 4000 Gram is 128 MB; at 600 x 600, the centred rows beside their
        # two Grams are 2 x the inputs, and an n x n centering matrix with H K H took 4 x
        assert peak < 3 * (a.nbytes + b.nbytes), f"peak {peak} B for {a.nbytes + b.nbytes} B"


class TestDeltaWSimilarity:
    def test_common_direction_gives_all_ones(self):
        pre = LinearHead(np.zeros((3, 2)) + [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        ft = LinearHead(pre.weights + [0.5, 0.25])
        report = delta_w_similarity(pre, ft, (0, 1, 2))
        np.testing.assert_allclose(report.matrix, 1.0, atol=1e-12)
        assert report.mean_offdiag == pytest.approx(1.0, abs=1e-12)

    def test_opposite_directions(self):
        pre = LinearHead(np.zeros((2, 2)))
        ft = LinearHead([[1.0, 0.0], [-1.0, 0.0]])
        report = delta_w_similarity(pre, ft, (0, 1))
        assert report.matrix[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert report.mean_offdiag == pytest.approx(-1.0, abs=1e-12)

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(5)
        pre = LinearHead(rng.normal(size=(6, 4)))
        ft = LinearHead(pre.weights + rng.normal(size=(6, 4)))
        report = delta_w_similarity(pre, ft, range(6))
        np.testing.assert_allclose(np.diag(report.matrix), 1.0, atol=1e-9)
        assert np.all(report.matrix <= 1 + 1e-12) and np.all(report.matrix >= -1 - 1e-12)
        np.testing.assert_allclose(report.matrix, report.matrix.T, atol=0)

    def test_matrix_is_read_only(self):
        report = delta_w_similarity(LinearHead(np.eye(3)), LinearHead(2 * np.eye(3)), (0, 1, 2))
        with pytest.raises(ValueError, match="read-only"):
            report.matrix[0, 1] = 5.0

    def test_zero_delta_names_class(self):
        pre = LinearHead(np.eye(3))
        ft = LinearHead(np.eye(3) + [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateInputError, match="class 0"):
            delta_w_similarity(pre, ft, (0, 1, 2))

    def test_the_scale_of_the_update_moves_no_bit(self):
        # the squares of these updates underflow or overflow; unit_rows rescales them exactly
        rng = np.random.default_rng(14)
        pre, ft = rng.normal(size=(5, 8)), rng.normal(size=(5, 8))
        expected = delta_w_similarity(LinearHead(pre), LinearHead(ft), range(5))
        for scale in (2.0**-560, 2.0**530):
            report = delta_w_similarity(LinearHead(pre * scale), LinearHead(ft * scale), range(5))
            assert report.matrix.tobytes() == expected.matrix.tobytes()
            assert report.mean_offdiag == expected.mean_offdiag

    @pytest.mark.parametrize(
        "subset, message", [((1,), "at least 2 classes"), ((0, 1, 1), "duplicate class indices")]
    )
    def test_needs_two_distinct_classes(self, subset, message):
        pre = LinearHead(np.eye(3))
        with pytest.raises(ValidationError, match=f"^subset .*{message}$"):
            delta_w_similarity(pre, LinearHead(2 * np.eye(3)), subset)

    def test_non_integral_class_index_rejected(self):
        rng = np.random.default_rng(13)
        pre = LinearHead(rng.normal(size=(4, 3)))
        ft = LinearHead(pre.weights + rng.normal(size=(4, 3)))
        with pytest.raises(ValidationError, match="class index 1.5 is not an integer"):
            delta_w_similarity(pre, ft, (0, 1.5))
        for two in (2, np.int64(2)):
            assert delta_w_similarity(pre, ft, (0, two)).subset == (0, 2)

    def test_toy_absent_updates_more_aligned_than_seen(self, toy_report):
        assert (
            toy_report.absent_update_similarity.mean_offdiag
            > toy_report.seen_update_similarity.mean_offdiag
        )


class TestWeightNorms:
    def test_unit_rows(self):
        head = LinearHead(np.eye(4))
        assert weight_norms(head, LabelPartition(4, (0, 1))) == (1.0, 1.0)

    def test_scaling_seen_rows_doubles_their_mean(self):
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(5, 3))
        p = LabelPartition(5, (0, 2))
        seen_mean, absent_mean = weight_norms(LinearHead(weights), p)
        scaled = weights.copy()
        scaled[[0, 2]] *= 2.0
        seen2, absent2 = weight_norms(LinearHead(scaled), p)
        assert seen2 == pytest.approx(2.0 * seen_mean, rel=1e-15)
        assert absent2 == absent_mean

    def test_toy_seen_norms_dominate(self, toy_report):
        assert toy_report.seen_weight_norm >= toy_report.absent_weight_norm


class TestLogitGapStats:
    def test_equal_logits_equal_means(self):
        logits = LabeledLogits(np.full((4, 6), 3.25), [0, 1, 4, 5])
        p = LabelPartition(6, (0, 1, 2))
        seen_mean, absent_mean = logit_gap_stats(logits, p)
        assert seen_mean == absent_mean == 3.25

    def test_two_sample_hand_computation(self):
        # sample 1 (GT 0): seen non-GT mean = 2.0, absent mean = (4+6)/2 = 5
        # sample 2 (GT 3): seen mean = (1+2)/2 = 1.5, absent non-GT mean = 7
        logits = LabeledLogits(
            [[9.0, 2.0, 4.0, 6.0], [1.0, 2.0, 7.0, 8.0]], [0, 3]
        )
        p = LabelPartition(4, (0, 1))
        seen_mean, absent_mean = logit_gap_stats(logits, p)
        assert seen_mean == pytest.approx((2.0 + 1.5) / 2, abs=1e-15)
        assert absent_mean == pytest.approx((5.0 + 7.0) / 2, abs=1e-15)

    def test_alg_identity_on_seen_labeled_data(self):
        rng = np.random.default_rng(7)
        p = LabelPartition(8, (0, 1, 2, 3))
        labels = rng.integers(0, 4, size=40)
        logits = LabeledLogits(rng.normal(size=(40, 8)), labels)
        seen_mean, absent_mean = logit_gap_stats(logits, p)
        assert seen_mean - absent_mean == estimate_gamma_alg(logits, p).value

    def test_single_class_group_is_rejected(self):
        logits = LabeledLogits([[1.0, 2.0, 3.0]], [2])
        with pytest.raises(ValidationError):
            logit_gap_stats(logits, LabelPartition(3, (0, 1)))  # |U| = 1 with absent GT


class TestAbsentBinaryProb:
    def test_uniform_logits_balanced_groups(self):
        logits = LabeledLogits(np.zeros((3, 4)), [2, 3, 2])
        assert absent_binary_prob(logits, LabelPartition(4, (0, 1))) == 0.5

    def test_dominant_absent_margin(self):
        logits = LabeledLogits([[0.0, 0.0, 20.0, 20.0]], [2])
        assert absent_binary_prob(logits, LabelPartition(4, (0, 1))) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_matches_per_row_decomposition(self):
        rng = np.random.default_rng(8)
        p = LabelPartition(6, (0, 1, 2))
        labels = rng.integers(3, 6, size=25)
        logits = LabeledLogits(rng.normal(size=(25, 6)), labels)
        expected = np.mean([decompose(row, p)[0] for row in logits.values])
        assert absent_binary_prob(logits, p) == expected

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_a_lone_absent_row_matches_its_decomposition(self, scale):
        rng = np.random.default_rng(9)
        p = LabelPartition(40, range(0, 40, 3))
        for row in rng.normal(size=(200, 40)) * scale:
            logits = LabeledLogits(row[None], [1])
            assert absent_binary_prob(logits, p) == decompose(row, p)[0]

    def test_requires_absent_samples(self):
        logits = LabeledLogits([[1.0, 0.0, 0.0]], [0])
        with pytest.raises(EmptyGroupError):
            absent_binary_prob(logits, LabelPartition(3, (0, 1)))


class TestGtVsTopNongtAbsent:
    def test_hand_instance(self):
        # GT logits 5 and 1; largest non-GT absent logits 3 and 4.
        logits = LabeledLogits(
            [[9.0, 5.0, 3.0, 2.0], [0.0, 4.0, 1.0, 4.0]], [1, 2]
        )
        p = LabelPartition(4, (0,))
        gt_mean, top_mean = gt_vs_top_nongt_absent(logits, p)
        assert gt_mean == pytest.approx(3.0, abs=1e-15)
        assert top_mean == pytest.approx(3.5, abs=1e-15)

    def test_dominant_gt_gives_positive_difference(self):
        logits = LabeledLogits([[0.0, 10.0, 1.0]], [1])
        p = LabelPartition(3, (0,))
        gt_mean, top_mean = gt_vs_top_nongt_absent(logits, p)
        assert gt_mean > top_mean

    def test_difference_sign_matches_per_sample_enumeration(self):
        rng = np.random.default_rng(9)
        p = LabelPartition(7, (0, 1))
        labels = rng.integers(2, 7, size=30)
        logits = LabeledLogits(rng.normal(size=(30, 7)), labels)
        gt_mean, top_mean = gt_vs_top_nongt_absent(logits, p)
        diffs = []
        for row, y in zip(logits.values, labels):
            others = [row[c] for c in p.absent if c != y]
            diffs.append(row[y] - max(others))
        assert (gt_mean - top_mean >= 0) == (np.mean(diffs) >= 0)
        assert gt_mean - top_mean == pytest.approx(np.mean(diffs), abs=1e-12)

    def test_needs_two_absent_classes(self):
        logits = LabeledLogits([[1.0, 0.0, 2.0]], [2])
        with pytest.raises(ValidationError):
            gt_vs_top_nongt_absent(logits, LabelPartition(3, (0, 1)))
