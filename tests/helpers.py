"""Reference helpers shared by the test modules."""

from fractions import Fraction

import numpy as np


def is_absent_label(partition, labels) -> np.ndarray:
    """Boolean mask of the ``labels`` that belong to ``partition``'s absent group."""
    return np.isin(labels, partition.group_indices("U"))


def exact_accuracies(values, labels, partition, gammas) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(Acc_{S/Y}, Acc_{U/Y}, Acc_{Y/Y}) at each gamma as exact fractions,
    recounted one sample at a time.

    Each group predicts its first maximum. A sample goes absent when its
    flip value, max seen minus max absent logit rounded once to a float as
    ``SeenUnseenCurve`` defines it, is below gamma, or equal to it with the
    lower index absent. Wherever that side differs from the side exact
    arithmetic on the adjusted logits gives, gamma must be the rounded flip
    itself: rounding is monotone, so no gamma strictly between two floats
    can tell the two apart. (Comparing two floats is exact; only the
    subtraction rounds, so only a flip it rounded is checked.)
    """
    seen = partition.group_indices("S").tolist()
    absent = partition.group_indices("U").tolist()

    def first_max(row, cols):
        best = max(cols, key=lambda c: (row[c], -c))
        return Fraction(row[best]), best

    samples = []
    for row, label in zip(values.tolist(), labels.tolist()):
        max_s, arg_s = first_max(row, seen)
        max_u, arg_u = first_max(row, absent)
        rounded = float(max_s) - float(max_u)
        flip = max_s - max_u
        samples.append((flip if flip != rounded else None, rounded, arg_s, arg_u, label))
    num_absent = sum(label in absent for label in labels.tolist())
    num_seen = len(samples) - num_absent
    accuracies = []
    for gamma in gammas:
        g = float(gamma)
        exact_g = Fraction(g)
        hits_s = hits_u = 0
        for rounded_from, rounded, arg_s, arg_u, label in samples:
            goes_absent = rounded < g or (rounded == g and arg_u < arg_s)
            if rounded_from is not None and rounded != g:
                assert goes_absent == (rounded_from < exact_g)
            if goes_absent:
                hits_u += arg_u == label
            else:
                hits_s += arg_s == label
        accuracies.append(
            (
                Fraction(hits_s, num_seen),
                Fraction(hits_u, num_absent),
                Fraction(hits_s + hits_u, num_seen + num_absent),
            )
        )
    return accuracies


def exact_area(accuracies) -> Fraction:
    """Exact area under the staircase of (Acc_{S/Y}, Acc_{U/Y}) points in
    curve order."""
    xs = [acc_s for acc_s, _, _ in accuracies] + [Fraction(0)]
    return sum(acc_u * (xs[k] - xs[k + 1]) for k, (_, acc_u, _) in enumerate(accuracies))
