"""Per-sample group statistics: computed once per logits container and
partition, and read by every accuracy and logit diagnostic, which must equal
their full-matrix formulas bit for bit."""

import copy
import dataclasses
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ftcal import (
    ClassMeans,
    EmptyGroupError,
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    MlpModel,
    ToySpec,
    absent_binary_prob,
    acc_report,
    accuracy,
    apply_gamma,
    ausuc,
    default_train_config,
    estimate_gamma_alg,
    estimate_gamma_star,
    gt_vs_top_nongt_absent,
    logit_gap_stats,
    delta_w_similarity,
    run_toy_pipeline,
    seen_unseen_curve,
)
from ftcal import cli, data, metrics
from ftcal.analysis import nongt_logit_means
from ftcal.metrics import _group_stats
from ftcal.pipeline import PCV_REPEATS

from helpers import exact_accuracies, exact_area, is_absent_label

# ------------------------------------------------ full-matrix references


def ref_accuracy(logits, partition, group_a, group_b):
    mask = np.isin(logits.labels, partition.group_indices(group_a))
    if not mask.any():
        raise EmptyGroupError(f"no samples labeled in group {group_a}")
    cols = partition.group_indices(group_b)
    preds = cols[np.argmax(logits.values[mask][:, cols], axis=1)]
    return float(np.mean(preds == logits.labels[mask]))


def ref_nongt_logit_means(logits, partition):
    values, labels = logits.values, logits.labels
    seen_cols = partition.group_indices("S")
    absent_cols = partition.group_indices("U")
    in_seen = np.isin(labels, seen_cols)
    gt = values[np.arange(labels.size), labels]
    sum_seen = values[:, seen_cols].sum(axis=1)
    sum_absent = values[:, absent_cols].sum(axis=1)
    seen_means = np.where(
        in_seen, (sum_seen - gt) / (seen_cols.size - 1), sum_seen / seen_cols.size
    )
    absent_means = np.where(
        in_seen, sum_absent / absent_cols.size, (sum_absent - gt) / max(absent_cols.size - 1, 1)
    )
    return seen_means, absent_means


def ref_logit_gap_stats(logits, partition):
    seen_means, absent_means = ref_nongt_logit_means(logits, partition)
    return float(seen_means.mean()), float(absent_means.mean())


def ref_absent_binary_prob(logits, partition):
    mask = is_absent_label(partition, logits.labels)
    rows = logits.values[mask]
    if rows.shape[0] == 1:  # a lone row is summed as in any larger gather, column by column
        rows = np.repeat(rows, 2, axis=0)
    z = np.exp(rows - rows.max(axis=1, keepdims=True))
    z_seen = z[:, partition.group_indices("S")].sum(axis=1)
    z_absent = z[:, partition.group_indices("U")].sum(axis=1)
    return float((z_absent / (z_seen + z_absent)).mean())


def ref_gt_vs_top_nongt_absent(logits, partition):
    absent_cols = partition.group_indices("U")
    mask = is_absent_label(partition, logits.labels)
    values = logits.values[mask][:, absent_cols]
    labels = logits.labels[mask]
    positions = np.searchsorted(absent_cols, labels)
    gt = values[np.arange(labels.size), positions]
    others = values.copy()
    others[np.arange(labels.size), positions] = -np.inf
    return float(gt.mean()), float(others.max(axis=1).mean())


def ref_gamma_alg(train_logits, partition):
    seen_means, absent_means = ref_nongt_logit_means(train_logits, partition)
    gaps = seen_means - absent_means
    return float(seen_means.mean() - absent_means.mean()), float(gaps.std(ddof=1))


def ref_curve(values, labels, partition):
    """Curve thresholds and points by the binary-search formula: each
    sample's interval index is searched for in the sorted thresholds."""
    seen, absent = partition.group_indices("S"), partition.group_indices("U")
    at = np.arange(labels.size)
    arg_s = seen[np.argmax(values[:, seen], axis=1)]
    arg_u = absent[np.argmax(values[:, absent], axis=1)]
    flip = values[at, arg_s] - values[at, arg_u]
    correct_seen, correct_absent = arg_s == labels, arg_u == labels
    thresholds = np.unique(flip)
    k = thresholds.size
    j = np.searchsorted(thresholds, flip)
    seen_counts = np.concatenate(
        [np.cumsum(np.bincount(j[correct_seen], minlength=k)[::-1])[::-1], [0]]
    )
    absent_counts = np.concatenate([[0], np.cumsum(np.bincount(j[correct_absent], minlength=k))])
    upper = np.flatnonzero(np.nextafter(thresholds[:-1], np.inf) == thresholds[1:]) + 1
    tied_absent = arg_u < arg_s
    seen_counts[upper] -= np.bincount(j[correct_seen & tied_absent], minlength=k)[upper]
    absent_counts[upper] += np.bincount(j[correct_absent & tied_absent], minlength=k)[upper]
    num_absent = int(np.isin(labels, absent).sum())
    num_seen = labels.size - num_absent
    points = np.stack([seen_counts / num_seen, absent_counts / num_absent], axis=1)
    return thresholds, points


def bits(value):
    """Bytes of a float or float array, so -0.0 and 0.0 compare unequal."""
    return np.asarray(value, dtype=np.float64).tobytes()


# ------------------------------------------------------------- instances


def diagnostic_instance(seed, scale, quantised):
    """Logits, labels, seen-only training logits and a random partition
    with at least two classes in each group. Quantised logits (multiples
    of 1/16) tie within groups; about half the absent-labeled rows carry
    the absent argmax as their label, so the top non-ground-truth absent
    logit often needs a second maximum."""
    rng = np.random.default_rng(seed)
    c = int(rng.integers(4, 13))
    k = int(rng.integers(2, c - 1))
    partition = LabelPartition(c, tuple(rng.permutation(c)[:k].tolist()))
    seen, absent = partition.group_indices("S"), partition.group_indices("U")
    n = int(rng.integers(2, 80))
    if quantised:
        values = rng.integers(-24, 25, size=(n, c)) / 16.0 * scale
    else:
        values = rng.normal(0.0, 2.0, size=(n, c)) * scale
    labels = rng.integers(0, c, size=n)
    labels[0] = rng.choice(seen)
    labels[1] = rng.choice(absent)
    top_absent = absent[np.argmax(values[:, absent], axis=1)]
    pick = (rng.random(n) < 0.5) & np.isin(labels, absent)
    labels[pick] = top_absent[pick]
    train_labels = rng.choice(seen, size=n)
    return values, labels, train_labels, partition


diagnostic_instances = st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 1e3]), st.booleans()
)

# Differences of these give ulp-adjacent flips (0 and the smallest
# subnormal; 1 and its neighbours) and flips of both zero signs.
_ULP_POOL = np.array(
    [-1.0, -0.0, 0.0, 5e-324, -5e-324, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
)


def curve_instance(seed, scale, quantised):
    """A diagnostic instance with about half its logits drawn from
    ``_ULP_POOL``."""
    values, labels, _, partition = diagnostic_instance(seed, scale, quantised)
    rng = np.random.default_rng([seed, 1])
    pooled = rng.random(values.shape) < 0.5
    values[pooled] = rng.choice(_ULP_POOL, size=values.shape)[pooled]
    return values, labels, partition


class TestBitForBitWithFullMatrixFormulas:
    @given(diagnostic_instances, st.integers(1, 4096))
    @settings(max_examples=300, deadline=None)
    def test_logit_diagnostics(self, instance, block_bytes):
        values, labels, train_labels, partition = diagnostic_instance(*instance)
        with pytest.MonkeyPatch.context() as patch:
            # a few bytes per block puts every row, or a handful, in its own block
            patch.setattr(data, "_BLOCK_BYTES", block_bytes)
            logits = LabeledLogits(values, labels)
            train = LabeledLogits(values, train_labels)
            means = nongt_logit_means(logits, partition)
            gap = logit_gap_stats(logits, partition)
            binary = absent_binary_prob(logits, partition)
            gt_top = gt_vs_top_nongt_absent(logits, partition)
            alg = estimate_gamma_alg(train, partition)
        reference = LabeledLogits(values, labels)
        for got, want in zip(means, ref_nongt_logit_means(reference, partition)):
            assert bits(got) == bits(want)
        assert bits(gap) == bits(ref_logit_gap_stats(reference, partition))
        assert bits(binary) == bits(ref_absent_binary_prob(reference, partition))
        assert bits(gt_top) == bits(ref_gt_vs_top_nongt_absent(reference, partition))
        value, gap_std = ref_gamma_alg(LabeledLogits(values, train_labels), partition)
        assert bits(alg.value) == bits(value)
        assert bits(alg.diagnostics["gap_std"]) == bits(gap_std)

    @given(diagnostic_instances, st.integers(1, 4096))
    @settings(max_examples=200, deadline=None)
    def test_accuracy_for_all_nine_group_pairs(self, instance, block_bytes):
        values, labels, _, partition = diagnostic_instance(*instance)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_BYTES", block_bytes)
            logits = LabeledLogits(values, labels)
            for group_a in "SUY":
                for group_b in "SUY":
                    got = accuracy(logits, partition, group_a, group_b)
                    assert bits(got) == bits(ref_accuracy(logits, partition, group_a, group_b))

    @given(diagnostic_instances, st.integers(1, 4096))
    @settings(max_examples=300, deadline=None)
    def test_curve_equals_the_binary_search_formula(self, instance, block_bytes):
        values, labels, partition = curve_instance(*instance)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_BYTES", block_bytes)
            curve = seen_unseen_curve(LabeledLogits(values, labels), partition)
        thresholds, points = ref_curve(values, labels, partition)
        # the formula keeps whichever zero its sort leaves; the curve keeps +0.0
        assert bits(curve.thresholds) == bits(thresholds + 0.0)
        assert bits(curve.points) == bits(points)
        # recounted in exact arithmetic at each candidate gamma
        exact = exact_accuracies(values, labels, partition, curve.candidate_gammas())
        assert curve.points.tolist() == [[float(s), float(u)] for s, u, _ in exact]
        assert curve.acc_y_y().tolist() == [float(y) for _, _, y in exact]
        # the points are the int64 hit counts over the group sizes
        assert curve.hits.dtype == np.int64
        assert bits(curve.points) == bits(curve.hits / [curve.num_seen, curve.num_absent])
        # the area is the exact one, correctly rounded
        assert ausuc(curve) == float(exact_area(exact))

    @given(diagnostic_instances, st.integers(1, 4096))
    @example((173, 1e-3, False), 1)  # a runner-up of 0.0 and -0.0 in one row
    @settings(max_examples=200, deadline=None)
    def test_ground_truth_and_runner_up_absent_logits(self, instance, block_bytes):
        values, labels, partition = curve_instance(*instance)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_BYTES", block_bytes)
            stats = _group_stats(LabeledLogits(values, labels), partition)
        at = np.arange(labels.size)
        assert bits(stats.gt) == bits(values[at, labels])
        absent = values[:, partition.group_indices("U")]
        runner_up = absent.copy()
        runner_up[at, np.argmax(absent, axis=1)] = -np.inf
        # which zero max returns depends on memory alignment; the kernel keeps +0.0
        assert bits(stats.next_u) == bits(runner_up.max(axis=1) + 0.0)
        # as a value, it is the second largest absent logit
        assert np.array_equal(stats.next_u, np.sort(absent, axis=1)[:, -2])

    def test_one_absent_class_has_no_runner_up(self):
        logits = LabeledLogits([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]], [0, 2])
        stats = _group_stats(logits, LabelPartition(3, (0, 1)))
        assert stats.next_u.tolist() == [-np.inf, -np.inf]

    def test_group_sums_equal_full_column_gathers(self, monkeypatch):
        # 25 rows in blocks of 2 leave the 25th row in a block of its own,
        # whose sums follow the same column order as every gathered block
        values = np.random.default_rng(3).normal(size=(25, 11)) * 1e-3
        partition = LabelPartition(11, (0, 2, 3, 4, 6, 7, 8, 10))
        monkeypatch.setattr(data, "_BLOCK_BYTES", 2 * values.itemsize * 11)
        assert data._row_blocks(25, values.itemsize * 11)[-1] == slice(24, 25)
        stats = _group_stats(LabeledLogits(values, np.arange(25) % 11), partition)
        assert bits(stats.sum_s) == bits(values[:, partition.group_indices("S")].sum(axis=1))
        assert bits(stats.sum_u) == bits(values[:, partition.group_indices("U")].sum(axis=1))


def every_statistic(logits, partition):
    curve = seen_unseen_curve(logits, partition)
    star = estimate_gamma_star(logits, partition)
    return (
        acc_report(logits, partition).as_dict(),
        curve.thresholds.tolist(),
        curve.points.tolist(),
        star.as_dict(),
        apply_gamma(logits, partition, star.value).tolist(),
        [accuracy(logits, partition, a, b) for a in "SUY" for b in "SUY"],
        logit_gap_stats(logits, partition),
        absent_binary_prob(logits, partition),
        gt_vs_top_nongt_absent(logits, partition),
    )


def ascending_sums(sub):
    """Each row of ``sub`` summed left to right, one column at a time."""
    total = sub[:, 0].copy()
    for column in sub.T[1:]:
        total += column
    return total


class TestRowSumRule:
    """Every group row sum adds the row's entries in ascending column
    order, whatever rows surround it."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_gathers_of_one_two_and_many_rows(self, scale):
        rng = np.random.default_rng(41)
        block = rng.normal(size=(300, 64)) * scale
        reordered = pairwise = 0
        for num_cols in (1, 2, 7, 9, 33, 64):
            cols = np.sort(rng.permutation(64)[:num_cols])
            for num_rows in (1, 2, 300):
                sub = block[:num_rows][:, cols]
                assert bits(metrics._row_sums(sub)) == bits(ascending_sums(sub))
                if num_rows == 1:
                    pairwise += sub.sum(axis=1)[0] != ascending_sums(sub)[0]
                for copy in (np.take(block[:num_rows], cols, axis=1), np.ascontiguousarray(sub)):
                    reordered += int(np.count_nonzero(copy.sum(axis=1) != ascending_sums(sub)))
        # numpy sums a one-row gather, and the rows of a C-ordered copy of
        # any gather, pairwise: the rule rests on the gather's memory order
        assert reordered > 0 and pairwise > 0


class TestOneRowSums:
    """A one-row container, or one absent-labelled row, is summed as the same
    row inside a larger container: numpy would sum a lone row's column
    gather pairwise, but the rows of any larger gather column by column."""

    def _rows(self):
        rng = np.random.default_rng(40)
        values = rng.normal(size=(1500, 16)) * 1e-3
        labels = rng.integers(0, 16, size=1500)
        return values, labels, LabelPartition(16, range(0, 16, 2))

    def test_a_lone_row_has_the_statistics_it_has_among_others(self):
        values, labels, partition = self._rows()
        whole = _group_stats(LabeledLogits(values, labels), partition)
        means = nongt_logit_means(LabeledLogits(values, labels), partition)
        seen = partition.group_indices("S")
        pairwise = 0
        for i in range(values.shape[0]):
            one = LabeledLogits(values[i : i + 1], labels[i : i + 1])
            for got, want in zip(_group_stats(one, partition), whole):
                assert got.tobytes() == want[i : i + 1].tobytes()
            for got, want in zip(nongt_logit_means(one, partition), means):
                assert got.tobytes() == want[i : i + 1].tobytes()
            pairwise += values[i : i + 1][:, seen].sum(axis=1)[0] != whole.sum_s[i]
        # the pairwise sum of a lone row differs in the last bit on most rows
        assert pairwise > 500

    def test_a_lone_absent_row_has_the_probability_it_has_among_others(self):
        values, labels, partition = self._rows()
        absent = is_absent_label(partition, labels)
        rows = values[absent]  # hundreds of rows: each summed column by column
        z = np.exp(rows - rows.max(axis=1, keepdims=True))
        z_seen = z[:, partition.group_indices("S")].sum(axis=1)
        z_absent = z[:, partition.group_indices("U")].sum(axis=1)
        expected = z_absent / (z_seen + z_absent)
        seen_row = int(np.flatnonzero(~absent)[0])
        for k, i in enumerate(np.flatnonzero(absent)):
            alone = LabeledLogits(values[[i]], labels[[i]])
            beside_a_seen_row = LabeledLogits(values[[i, seen_row]], labels[[i, seen_row]])
            for logits in (alone, beside_a_seen_row):
                assert bits(absent_binary_prob(logits, partition)) == bits(expected[k])


class TestMemo:
    def test_alternating_partitions_equal_fresh_containers(self):
        rng = np.random.default_rng(11)
        values = rng.integers(-24, 25, size=(60, 6)) / 16.0
        labels = np.arange(60) % 6
        first, second = LabelPartition(6, (0, 1)), LabelPartition(6, (2, 4, 5))
        shared = LabeledLogits(values, labels)
        for partition in (first, second, first, second):
            assert every_statistic(shared, partition) == every_statistic(
                LabeledLogits(values, labels), partition
            )

    def test_equal_but_distinct_partition_hits_the_memo(self):
        logits = LabeledLogits([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]], [0, 2])
        first, second = LabelPartition(3, (0, 1)), LabelPartition(3, (1, 0))
        assert first is not second
        assert _group_stats(logits, first) is _group_stats(logits, second)

    def test_memo_is_not_a_field(self):
        logits = LabeledLogits([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]], [0, 2])
        before = repr(logits)
        _group_stats(logits, LabelPartition(3, (0, 1)))
        assert repr(logits) == before
        assert [field.name for field in dataclasses.fields(logits)] == ["values", "labels"]

    def test_diagnostics_need_only_the_statistics(self):
        values, labels, _, partition = diagnostic_instance(5, 1.0, True)
        logits = LabeledLogits(values, labels)

        def diagnostics():
            return (
                *nongt_logit_means(logits, partition),
                logit_gap_stats(logits, partition),
                gt_vs_top_nongt_absent(logits, partition),
            )

        before = diagnostics()
        object.__setattr__(logits, "values", None)  # a read of the matrix now fails
        assert [bits(v) for v in diagnostics()] == [bits(v) for v in before]

    def test_memoised_arrays_are_read_only(self):
        logits = LabeledLogits([[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]], [0, 2])
        stats = _group_stats(logits, LabelPartition(3, (0, 1)))
        assert len(stats) == 9
        for array in stats:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[1]


@pytest.fixture()
def kernel_passes(monkeypatch):
    """Count the group-statistics computations (memo hits not included)."""
    passes = []
    real = metrics._GroupStats

    def counting(*arrays):
        passes.append(1)
        return real(*arrays)

    monkeypatch.setattr(metrics, "_GroupStats", counting)
    return passes


class TestOneKernelPass:
    def test_diagnose_sequence(self, toy_report, kernel_passes, capsys):
        out = toy_report.outdir
        code = cli.main([
            "diagnose",
            "--logits", f"{out}/logits_finetuned.csv",
            "--labels", f"{out}/target_test_labels.csv",
            "--partition", f"{out}/partition.txt",
            "--head", f"{out}/head_finetuned.csv",
        ])
        assert code == 0 and "absent_binary_prob=" in capsys.readouterr().out
        assert len(kernel_passes) == 1

    @pytest.mark.parametrize("restrict", ["S", "U", "Y"])
    def test_restricted_ncm_sequence(self, toy_report, kernel_passes, restrict, capsys):
        # ftcal ncm counts hits of ncm_predict passes: no logits container, no statistics
        out = toy_report.outdir
        code = cli.main([
            "ncm",
            "--mean-features", f"{out}/hidden_pretrained.csv",
            "--mean-labels", f"{out}/target_test_labels.csv",
            "--eval-features", f"{out}/hidden_finetuned.csv",
            "--eval-labels", f"{out}/target_test_labels.csv",
            "--partition", f"{out}/partition.txt",
            "--restrict", restrict,
        ])
        assert code == 0 and capsys.readouterr().out.count("=") == (8 if restrict == "Y" else 3)
        assert len(kernel_passes) == 0

    def test_every_statistic_of_one_container(self, kernel_passes):
        values, labels, _, partition = diagnostic_instance(5, 1.0, False)
        every_statistic(LabeledLogits(values, labels), partition)
        assert len(kernel_passes) == 1


@pytest.fixture()
def curve_builds(monkeypatch):
    """Count the ``SeenUnseenCurve`` constructions (memo hits not included)."""
    builds = []
    real = metrics.SeenUnseenCurve

    def counting(**fields):
        builds.append(1)
        return real(**fields)

    monkeypatch.setattr(metrics, "SeenUnseenCurve", counting)
    return builds


def curve_numbers(logits, partition):
    """Every number of the curve and of gamma*, as bytes where a float."""
    curve = seen_unseen_curve(logits, partition)
    star = estimate_gamma_star(logits, partition)
    return (
        curve.thresholds.tobytes(),
        curve.points.tobytes(),
        curve.hits.tobytes(),
        bits(curve.within_group_acc),
        (curve.num_seen, curve.num_absent),
        bits(ausuc(curve)),
        [(key, bits(value)) for key, value in star.as_dict().items() if key != "method"],
    )


class TestOneCurve:
    """The curve is built once per container and partition and kept beside
    the statistics, so the curve, gamma* and AUSUC read one staircase."""

    def test_curve_then_gamma_star_builds_one_curve(self, curve_builds):
        values, labels, partition = curve_instance(3, 1.0, True)
        logits = LabeledLogits(values, labels)
        curve = seen_unseen_curve(logits, partition)
        estimate_gamma_star(logits, partition)
        assert seen_unseen_curve(logits, LabelPartition(*dataclasses.astuple(partition))) is curve
        assert len(curve_builds) == 1

    def test_a_single_group_container_raises_each_time_and_builds_no_curve(self, curve_builds):
        logits = LabeledLogits([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0]], [0, 1])
        partition = LabelPartition(3, (0, 1))
        for _ in range(2):
            with pytest.raises(EmptyGroupError, match="group U"):
                seen_unseen_curve(logits, partition)
        assert not curve_builds

    @pytest.mark.parametrize("pcv", [False, True], ids=["default", "4+4-with-pcv"])
    def test_a_toy_run_builds_each_curve_once(self, tmp_path, curve_builds, pcv):
        spec = ToySpec(samples_per_class=20)
        if pcv:
            spec = ToySpec(
                class_means=tuple((10.0, 1.5 * c) for c in range(8)),
                shift=(0.5, -0.5) * 4,
                samples_per_class=20,
                fine_tuning=(0, 1, 2, 3),
            )
        report = run_toy_pipeline(spec, default_train_config(seed=4), tmp_path)
        assert (report.gamma_pcv is not None) == pcv
        # the pretrained and finetuned curves, then one per PCV repeat
        assert len(curve_builds) == 2 + (PCV_REPEATS if pcv else 0)

    def test_diagnose_builds_none(self, toy_report, curve_builds, capsys):
        out = toy_report.outdir
        code = cli.main([
            "diagnose",
            "--logits", f"{out}/logits_finetuned.csv",
            "--labels", f"{out}/target_test_labels.csv",
            "--partition", f"{out}/partition.txt",
            "--head", f"{out}/head_finetuned.csv",
        ])
        assert code == 0 and "absent_binary_prob=" in capsys.readouterr().out
        assert not curve_builds

    def test_alternating_partitions_equal_fresh_containers(self):
        values, labels, first = curve_instance(3, 1.0, True)
        second = LabelPartition(first.num_classes, first.absent)
        shared = LabeledLogits(values, labels)
        for partition in (first, second, first):
            assert curve_numbers(shared, partition) == curve_numbers(
                LabeledLogits(values, labels), partition
            )

    def test_threads_sharing_one_container_equal_fresh_containers(self):
        values, labels, first = curve_instance(8, 1.0, True)
        partitions = (first, LabelPartition(first.num_classes, first.absent))
        expected = [curve_numbers(LabeledLogits(values, labels), p) for p in partitions]
        shared = LabeledLogits(values, labels)
        picks = [i % 2 for i in range(64)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=data._cpu_count() + 2) as pool:
                work = pool.map(lambda i: curve_numbers(shared, partitions[i]), picks, timeout=120)
                got = list(work)
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected[i] for i in picks]

    @pytest.mark.parametrize("copy_of", [
        copy.copy,
        lambda logits: dataclasses.replace(logits),
        lambda logits: pickle.loads(pickle.dumps(logits)),
    ], ids=["copy", "replace", "pickle"])
    @pytest.mark.parametrize("queried", [False, True], ids=["fresh", "queried"])
    def test_copies_report_the_same_numbers(self, copy_of, queried):
        values, labels, partition = curve_instance(5, 1.0, True)
        logits = LabeledLogits(values, labels)
        expected = curve_numbers(LabeledLogits(values, labels), partition)
        if queried:
            curve_numbers(logits, partition)
        copied = copy_of(logits)
        assert curve_numbers(copied, partition) == expected
        assert curve_numbers(logits, partition) == expected


# ---------------------------------------------- one empty-group rule

# 3 classes, class 0 seen and classes 1 and 2 absent, so that every reader,
# gt_vs_top_nongt_absent among them, gets past its own checks
ONE_SEEN = LabelPartition(3, (0,))
ONLY_SEEN = LabeledLogits([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0]], [0, 0])
ONLY_ABSENT = LabeledLogits([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0]], [1, 2])

EMPTY_GROUP_READERS = {
    "acc_report": acc_report,
    "seen_unseen_curve": seen_unseen_curve,
    "estimate_gamma_star": estimate_gamma_star,
    **{
        f"accuracy({a}|{b})": (lambda logits, p, a=a, b=b: accuracy(logits, p, a, b))
        for a in "SU"
        for b in "SUY"
    },
    "absent_binary_prob": absent_binary_prob,
    "gt_vs_top_nongt_absent": gt_vs_top_nongt_absent,
}
# the readers that also refuse a container with no seen-labelled sample
NEEDS_SEEN = ["acc_report", "seen_unseen_curve", "estimate_gamma_star"] + [
    f"accuracy(S|{b})" for b in "SUY"
]


@pytest.mark.parametrize(
    "name, logits, group",
    [(name, ONLY_SEEN, "U") for name in EMPTY_GROUP_READERS if "(S|" not in name]
    + [(name, ONLY_ABSENT, "S") for name in NEEDS_SEEN],
)
def test_every_reader_names_the_empty_group(name, logits, group):
    with pytest.raises(EmptyGroupError) as info:
        EMPTY_GROUP_READERS[name](logits, ONE_SEEN)
    assert str(info.value) == f"no samples labeled in group {group}"


# ------------------------------------------ copies rebuilt by constructor


def frozen_containers():
    logits = LabeledLogits([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0]], [0, 1])
    head = LinearHead([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return {
        "LabeledLogits": logits,
        "LabeledFeatures": LabeledFeatures([[1.0, 2.0], [3.0, 4.0]], [0, 5]),
        "LinearHead": head,
        "MlpModel": MlpModel([[1.0, 0.5], [0.0, 2.0]], head, "rectified"),
        "ClassMeans": ClassMeans([[0.6, 0.8], [1.0, 0.0]], [1, 4], [3, 2]),
        "SeenUnseenCurve": seen_unseen_curve(logits, LabelPartition(3, (0,))),
        "SimilarityReport": delta_w_similarity(head, LinearHead(head.weights + 1.0), (0, 1)),
    }


def array_fields(container):
    return {
        field.name: getattr(container, field.name)
        for field in dataclasses.fields(container)
        if isinstance(getattr(container, field.name), np.ndarray)
    }


class TestCopiesAreRebuilt:
    """A pickle or copy of a frozen container calls its constructor again,
    so it comes back checked, read-only and without a memo."""

    @pytest.mark.parametrize("name", list(frozen_containers()))
    @pytest.mark.parametrize("copy_of", [
        copy.copy,
        copy.deepcopy,
        lambda container: pickle.loads(pickle.dumps(container)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_hold_read_only_arrays(self, name, copy_of):
        original = frozen_containers()[name]
        copied = copy_of(original)
        assert type(copied) is type(original)
        arrays = array_fields(copied)
        if name == "MlpModel":
            arrays["head.weights"] = copied.head.weights
        assert arrays
        for field, array in arrays.items():
            assert not array.flags.writeable, field
            np.testing.assert_array_equal(array, array_fields(original).get(field, array))
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = -5.0

    def test_an_unpickled_queried_container_holds_no_memo(self):
        logits = LabeledLogits([[1.0, 0.0], [0.0, 1.0]], [0, 1])
        partition = LabelPartition(2, (0,))
        seen_unseen_curve(logits, partition)
        assert hasattr(logits, "_stats_memo")
        for copied in (pickle.loads(pickle.dumps(logits)), copy.copy(logits)):
            assert not hasattr(copied, "_stats_memo")
            assert copied.values is not logits.values
            assert acc_report(copied, partition) == acc_report(logits, partition)
