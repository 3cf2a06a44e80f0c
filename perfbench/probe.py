"""Speed probe: a fixed slice of work that never calls ftcal.

The machines this benchmark runs on are shared, and their speed swings by
up to 1.5x in phases lasting from seconds to minutes; a run's wall time
depends on the phase it lands in. The probe measures the current phase.
A phase slows kinds of work unequally, interpreter work more than passes
over large arrays, so a workload picks the probe that does its kind of
work:

- ``mixed``: formatting and parsing floats (as ``io`` does), many small
  numpy calls (as an SGD step does), passes over a small array and small
  matrix products;
- ``arrays``: passes over a 16 MB array, as the per-sample group
  statistics of the ``logits`` workload do;
- ``process``: start a fresh interpreter that imports numpy, as every
  ``python -m ftcal.cli`` call of the ``cli`` workload does.

A pass is cut at call boundaries into segments of at least ``SEGMENT_S``
seconds, with one probe between consecutive segments. Each segment's wall
time is scaled by the probe's nominal time over the mean of the two probes
around it: the time the segment would have taken in a quiet phase.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

SEGMENT_S = 0.5

# Each probe's fifth-percentile time when run alone on an idle 2-vCPU x86-64
# host (Python 3.11, numpy 2.4): a fixed scale from probe units to seconds.
NOMINAL_S = {"mixed": 0.013, "arrays": 0.021, "process": 0.15}


class Probe:
    def __init__(self, kind: str):
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        rng = np.random.default_rng(20240916)
        if kind == "mixed":
            self._values = rng.standard_normal(1_500).tolist()
            self._small = rng.standard_normal((64, 64))
            self._array = rng.standard_normal((20_000, 4))
            self._matrix = rng.standard_normal((200, 200))
        elif kind == "arrays":
            self._array = rng.standard_normal((500_000, 4))

    def __call__(self) -> float:
        """Run the probe once; return its wall seconds."""
        start = time.perf_counter()
        if self.kind == "mixed":
            text = ",".join(f"{v:.17g}" for v in self._values)
            sum(float(field) for field in text.split(","))
            for _ in range(100):
                np.maximum(self._small @ self._small, 0.0).sum(axis=1)
            for _ in range(10):
                self._array.argmax(axis=1)
                (self._array * 2.0).sum(axis=0)
            for _ in range(4):
                self._matrix @ self._matrix
        elif self.kind == "arrays":
            self._array.argmax(axis=1)
            (self._array * 2.0).sum(axis=0)
        else:
            subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        return time.perf_counter() - start
