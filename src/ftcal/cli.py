"""Command-line interface binding every module into file-based pipelines.

Exit status: 0 on success, 1 on usage errors, 2 on data/validation errors,
3 on numerical or training failures and on running out of memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

from . import io
from .analysis import _diagnostics, delta_w_similarity, linear_cka
from .calibration import (
    apply_gamma,
    estimate_gamma_alg,
    estimate_gamma_pcv,
    estimate_gamma_star,
)
from .data import (
    LabeledFeatures,
    LabeledLogits,
    LabelPartition,
    LinearHead,
    _class_set,
    check_num_classes,
    make_greedy_similar_split,
    make_random_split,
)
from .errors import TrainingError, ValidationError
from .metrics import acc_report, accuracy, ausuc, seen_unseen_curve
from .ncm import class_means, ncm_logits
from .pipeline import run_toy_pipeline
from .trainer import MODES, ToySpec, default_train_config, fine_tune, gradient_check

GRADCHECK_TOLERANCE = 1e-6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_logits(logits_path, labels_path) -> LabeledLogits:
    return LabeledLogits(io.load_matrix(logits_path), io.load_labels(labels_path))


def _load_logits_inputs(args) -> tuple[LabeledLogits, LabelPartition]:
    """The ``--logits``/``--labels`` container and the ``--partition``, read in that order."""
    return _load_logits(args.logits, args.labels), io.load_partition(args.partition)


def _load_features(features_path, labels_path) -> LabeledFeatures:
    return LabeledFeatures(io.load_matrix(features_path), io.load_labels(labels_path))


def _emit(pairs: dict, out_path=None) -> None:
    sys.stdout.write(io.format_report(pairs))
    if out_path:
        io.write_report(pairs, out_path)


def _cmd_metrics(args) -> int:
    logits, partition = _load_logits_inputs(args)
    _emit(acc_report(logits, partition, gamma=args.gamma).as_dict())
    return 0


def _cmd_ausuc(args) -> int:
    logits, partition = _load_logits_inputs(args)
    curve = seen_unseen_curve(logits, partition)
    if args.curve_out:
        io.write_text(args.curve_out, [io.format_curve_csv(curve)])
    _emit({"ausuc": ausuc(curve)})
    return 0


def _cmd_calibrate(args) -> int:
    logits, partition = _load_logits_inputs(args)
    io.save_labels(apply_gamma(logits, partition, args.gamma), args.out)
    return 0


def _cmd_alg(args) -> int:
    logits = _load_logits(args.train_logits, args.train_labels)
    partition = io.load_partition(args.partition)
    _emit(estimate_gamma_alg(logits, partition).as_dict(), args.out)
    return 0


def _cmd_pcv(args) -> int:
    features = _load_features(args.train_features, args.train_labels)
    model = io.load_model(args.model)
    partition = io.load_partition(args.partition)
    config = io.load_train_config(args.config)
    estimate = estimate_gamma_pcv(
        features,
        model,
        partition,
        config,
        repeats=args.repeats,
        seed=args.seed,
        finetune_on_pseudo_absent=args.finetune_on_pseudo_absent,
    )
    _emit(estimate.as_dict(), args.out)
    return 0


def _cmd_gamma_star(args) -> int:
    logits, partition = _load_logits_inputs(args)
    _emit(estimate_gamma_star(logits, partition).as_dict(), args.out)
    return 0


def _cmd_ncm(args) -> int:
    mean_data = _load_features(args.mean_features, args.mean_labels)
    eval_data = _load_features(args.eval_features, args.eval_labels)
    partition = io.load_partition(args.partition)
    check_num_classes("mean data has", int(mean_data.labels.max()) + 1, partition)
    scores = ncm_logits(eval_data, class_means(mean_data, range(partition.num_classes)))
    if args.restrict == "Y":
        _emit(acc_report(scores, partition).as_dict())
    else:
        low = args.restrict.lower()
        _emit(
            {
                f"acc_{group.lower()}_{low}": accuracy(scores, partition, group, args.restrict)
                for group in ("S", "U", "Y")
            }
        )
    return 0


def _cmd_cka(args) -> int:
    a = io.load_matrix(args.weights_a)
    b = io.load_matrix(args.weights_b)
    if args.rows:
        try:  # read as a partition's fine_tuning= is
            rows = list(io._parse_value(args.rows, tuple[int, ...]))
        except ValueError:
            raise ValidationError(f"--rows must be comma-separated integers, got {args.rows!r}")
        _class_set(rows, "--rows", min(a.shape[0], b.shape[0]), repeats="merge")
        a, b = a[rows], b[rows]  # in the order given, not _class_set's sorted order
    _emit({"cka": linear_cka(a, b)})
    return 0


def _cmd_delta_w(args) -> int:
    pre = LinearHead(io.load_matrix(args.pre))
    ft = LinearHead(io.load_matrix(args.ft))
    partition = io.load_partition(args.partition)
    check_num_classes("head has", pre.num_classes, partition)
    report = delta_w_similarity(pre, ft, partition.group_indices(args.group))
    if args.out:
        io.save_matrix(report.matrix, args.out)
    _emit(
        {
            "group": args.group,
            "subset": report.subset,
            "mean_offdiag": report.mean_offdiag,
        }
    )
    return 0


def _cmd_diagnose(args) -> int:
    logits, partition = _load_logits_inputs(args)
    _emit(_diagnostics(logits, LinearHead(io.load_matrix(args.head)), partition))
    return 0


def _cmd_split(args) -> int:
    if args.mode == "random":
        partition = make_random_split(args.num_classes, args.k, args.seed)
    else:
        if not args.class_means:
            raise ValidationError("greedy split requires --class-means")
        means = io.load_matrix(args.class_means)
        if means.shape[0] != args.num_classes:
            raise ValidationError(
                f"--num-classes is {args.num_classes} but --class-means has {means.shape[0]} rows"
            )
        partition = make_greedy_similar_split(means, args.k)
    io.save_partition(partition, args.out)
    _emit(asdict(partition))
    return 0


def _cmd_train(args) -> int:
    data = _load_features(args.features, args.labels)
    model = io.load_model(args.model_in)
    partition = io.load_partition(args.partition)
    config = replace(io.load_train_config(args.config), mode=args.mode.replace("-", "_"))
    check_num_classes("model has", model.num_classes, partition)
    trained, history = fine_tune(model, data, partition.fine_tuning, config)
    io.save_model(trained, args.model_out)
    io.save_history(history, args.history_out or args.model_out + ".history.csv")
    _emit({"epochs": len(history), "final_loss": history[-1].loss, "final_accuracy": history[-1].accuracy})
    return 0


def _cmd_toy(args) -> int:
    spec = io.load_toy_spec(args.spec) if args.spec else ToySpec()
    config = io.load_train_config(args.config) if args.config else default_train_config()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    report = run_toy_pipeline(spec, config, args.outdir)
    _emit(
        {
            "outdir": report.outdir,
            "ausuc_pretrained": report.pretrained_ausuc,
            "ausuc_finetuned": report.finetuned_ausuc,
            "gamma_star": report.gamma_star.value,
            "acc_u_y_pretrained": report.pretrained_acc.acc_u_y,
            "acc_u_y_finetuned": report.finetuned_acc.acc_u_y,
            "acc_y_y_calibrated": report.calibrated_acc.acc_y_y,
        }
    )
    return 0


def _cmd_gradcheck(args) -> int:
    worst = gradient_check(num_cases=args.cases, seed=args.seed)
    _emit({"max_relative_error": worst, "tolerance": GRADCHECK_TOLERANCE})
    return 0 if worst <= GRADCHECK_TOLERANCE else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ftcal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)  # what _load_logits_inputs reads
    inputs.add_argument("--logits", required=True)
    inputs.add_argument("--labels", required=True)
    inputs.add_argument("--partition", required=True)

    p = sub.add_parser(
        "metrics", parents=[inputs], help="group accuracy report, optionally gamma-calibrated"
    )
    p.add_argument("--gamma", type=float, default=0.0)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("ausuc", parents=[inputs], help="area under the exact seen-unseen curve")
    p.add_argument("--curve-out")
    p.set_defaults(func=_cmd_ausuc)

    p = sub.add_parser("calibrate", parents=[inputs], help="write gamma-calibrated predicted labels")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("alg", help="estimate gamma from the average logit gap")
    p.add_argument("--train-logits", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_alg)

    p = sub.add_parser("pcv", help="estimate gamma by pseudo cross-validation")
    p.add_argument("--train-features", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--finetune-on-pseudo-absent",
        action="store_true",
        help="fine-tune the pseudo-absent subset instead (swapped-convention replication)",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pcv)

    p = sub.add_parser(
        "gamma-star", parents=[inputs], help="cheating gamma maximizing overall test accuracy"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gamma_star)

    p = sub.add_parser("ncm", help="nearest-class-mean accuracy with held-out means")
    p.add_argument("--mean-features", required=True)
    p.add_argument("--mean-labels", required=True)
    p.add_argument("--eval-features", required=True)
    p.add_argument("--eval-labels", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--restrict", choices=["S", "U", "Y"], default="Y")
    p.set_defaults(func=_cmd_ncm)

    p = sub.add_parser("cka", help="linear CKA between two weight matrices")
    p.add_argument("--weights-a", required=True)
    p.add_argument("--weights-b", required=True)
    p.add_argument("--rows", help="comma-separated row indices to compare")
    p.set_defaults(func=_cmd_cka)

    p = sub.add_parser("delta-w", help="update-direction similarity within a group")
    p.add_argument("--pre", required=True)
    p.add_argument("--ft", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--group", choices=["S", "U"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_delta_w)

    p = sub.add_parser("diagnose", parents=[inputs], help="bundled logit and weight diagnostics")
    p.add_argument("--head", required=True)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("split", help="generate a label-space partition")
    p.add_argument("--mode", choices=["random", "greedy"], required=True)
    p.add_argument("--num-classes", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--class-means")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="fine-tune a model on labeled features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model-in", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=[m.replace("_", "-") for m in MODES], required=True)
    p.add_argument("--history-out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("toy", help="run the full toy experiment fixture")
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--spec")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_toy)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=100)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TrainingError as exc:
        sys.stderr.write(f"training failure: {exc}\n")
        return 3
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
