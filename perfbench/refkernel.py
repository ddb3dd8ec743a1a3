"""Reference kernel: fixed host work timed between benchmark ops.

The kernel mixes what the program's hot paths spend their time on: a
pure-Python loop with dict traffic and a run of small dense Cholesky
factorizations.  It runs no ``repro`` code, so its time moves only with
the machine.  Dividing an op's wall time by the mean of the samples just
before and just after the op cancels the machine's drift (``op_p50_ref``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Pure-Python loop length and dense blocks of one kernel unit (~8 ms).
LOOP = 24_000
BLOCKS = 96
BLOCK_SIZE = 24
#: Units per sample; a sample is their median.
REPEATS = 3


def _spd_blocks() -> list[np.ndarray]:
    rng = np.random.default_rng(20250921)
    blocks = []
    for _ in range(BLOCKS):
        a = rng.standard_normal((BLOCK_SIZE, BLOCK_SIZE))
        blocks.append(a @ a.T + BLOCK_SIZE * np.eye(BLOCK_SIZE))
    return blocks


class ReferenceKernel:
    """Times the fixed unit of work; keeps every sample in ``samples``."""

    def __init__(self) -> None:
        self._blocks = _spd_blocks()
        self.samples: list[float] = []
        self.sink = 0.0

    def _unit(self) -> float:
        table: dict[int, int] = {}
        acc = 0
        for i in range(LOOP):
            key = (i * 7919) % 1031
            table[key] = table.get(key, 0) + i
            acc += key & 0xFF
        total = float(acc + len(table))
        for block in self._blocks:
            total += float(np.linalg.cholesky(block)[-1, -1])
        return total

    def sample(self) -> float:
        """Median wall time of ``REPEATS`` kernel units, in seconds."""
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self.sink += self._unit()
            times.append(time.perf_counter() - t0)
        value = statistics.median(times)
        self.samples.append(value)
        return value
