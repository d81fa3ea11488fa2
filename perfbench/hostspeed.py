"""Host speed, measured with a fixed pure-Python loop, for scaling timings.

The machine the benchmark runs on shares its CPUs with other tenants, and its
speed drifts by up to 2x in phases of seconds to a minute; CPU time drifts with
wall time.  A run is too short to average those phases out, so its wall-clock
timings move with the host, not with the program.  ``probe()`` runs a loop of
fixed work close to what the program does (``Fraction`` sums and an
integer elimination), and a timing is scaled by ``REF_MS / probe time``:
it then reads as the time the same work would take at the reference speed.
A slower program still reads slower, since the probe does not run its code.

``child.py`` probes at item boundaries, at most every ``EVERY_S`` seconds and
outside the timed intervals, and scales each item by the median of the last
``WINDOW`` probes.

A fresh process's start-up follows that probe only in part: it is mostly
``exec``, file reads and module imports.  ``run.py`` therefore scales each
set-up start by ``start_probe()``, a fresh interpreter that imports the
program's heavy dependency and exits, timed just before and just after it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Median of probe() on the reference machine (see README.md), in ms.  It only
# sets the scale of the reported figures: it is the same for every commit.
REF_MS = 1.8
EVERY_S = 0.02
WINDOW = 5
# Median of start_probe() on the reference machine, in s.
START_REF_S = 0.15


def probe() -> float:
    """Wall time of one fixed piece of pure-Python work, in ms."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k % 7 + 1, k)
    rows = [[(i * 7 + j * 13) % 17 + (i == j) * 40 for j in range(8)] for i in range(8)]
    for i in range(8):
        pivot = rows[i][i]
        for r in range(i + 1, 8):
            f = rows[r][i]
            rows[r] = [a * pivot - b * f for a, b in zip(rows[r], rows[i])]
    return (time.perf_counter() - start) * 1e3


def start_probe(env: dict, cwd) -> float:
    """Wall time of a fresh interpreter that imports numpy and exits, in s."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fractions, numpy"], env=env, cwd=cwd,
                   capture_output=True, check=True, timeout=30)
    return time.perf_counter() - start


class HostSpeed:
    """Probes taken during a run, and the scale factor they give."""

    def __init__(self):
        self.samples: list[float] = [probe()]
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe ended."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.samples.append(probe())
            self._last = time.perf_counter()

    def factor(self) -> float:
        """REF_MS over the median of the last ``WINDOW`` probes."""
        return REF_MS / statistics.median(self.samples[-WINDOW:])
