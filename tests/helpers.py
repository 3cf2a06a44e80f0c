"""Reference helpers shared by the test modules."""

import numpy as np


def is_absent_label(partition, labels) -> np.ndarray:
    """Boolean mask of the ``labels`` that belong to ``partition``'s absent group."""
    return np.isin(labels, partition.group_indices("U"))
