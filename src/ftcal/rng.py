"""Deterministic random-number streams.

All randomness in the package flows through counter-based Philox generators
keyed by ``numpy.random.SeedSequence``. One master seed plus an integer
stream path fully determines every draw, so re-ordered or concurrent
execution cannot change results. The derivation scheme is: stream
``(a, b, ...)`` under master seed ``s`` is
``Philox(SeedSequence(s, spawn_key=(a, b, ...)))``.
"""

from __future__ import annotations

import numpy as np

from .errors import _integer


def check_seed(seed) -> int:
    """Validate and return an unsigned 64-bit seed as a plain int."""
    return _integer(seed, "seed", 0, 2**64)


def _key(seed, stream) -> np.random.SeedSequence:
    """The ``SeedSequence`` of a path of nonnegative integers under ``seed``."""
    path = [_integer(s, "stream", 0) for s in stream]
    return np.random.SeedSequence(check_seed(seed), spawn_key=path)


def derive_rng(seed, *stream: int) -> np.random.Generator:
    """Generator for the given stream path under the master seed."""
    return np.random.Generator(np.random.Philox(_key(seed, stream)))


def derive_seed(seed, *stream: int) -> int:
    """Collapse a stream path into a fresh unsigned 64-bit master seed."""
    return int(_key(seed, stream).generate_state(1, dtype=np.uint64)[0])
