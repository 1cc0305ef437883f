"""Speed probe: how fast the CPU the benchmark runs on is at each moment.

    python3 perfbench/probe.py       # runs until its standard input closes

On a shared host the CPU a child runs on slows down and speeds up, by as much
as 2x, within a second and from minute to minute, as other tenants load it.
A wall time taken over a second or more mixes both speeds in a share nobody
controls, so the same program reads very different times from one run to the
next.  This process runs beside the measured child, on the same CPU: every
``INTERVAL_S`` it wakes, times one fixed unit of work (small numpy products and
interpreter work, like the program's own steps) and sleeps again.  The units
timed while a child ran tell how much slower than uncontended the CPU was
during that child; ``SpeedProbe.scale`` turns that into a factor for the
child's times.  The unit does not touch the program, so a change to the
program moves the scaled times as it moves the real ones.

When its standard input closes the probe writes its records, pairs of
(``time.monotonic()`` at the start of a unit, seconds the unit took), to its
standard output as native doubles, and exits.
"""

from __future__ import annotations

import array
import select
import subprocess
import sys
import time
from pathlib import Path

INTERVAL_S = 0.01
# Mean seconds of one unit while a child runs beside it on a quiet CPU of the
# machine the benchmark was written on ("Intel(R) Xeon(R) Processor", Python
# 3.11): scaled times then about match unscaled ones of the calmest runs seen
# there.  Only the scale of the reported times depends on it.
REFERENCE_S = 2.0e-4
LIFETIME_S = 170.0  # never outlive a benchmark run, even if nobody stops us
MIN_UNITS = 5


def unit() -> float:
    import numpy as np

    a = np.full((4, 4), 0.01) + 0.5 * np.eye(4)
    s = 0.0
    for _ in range(100):
        s += float((a @ a)[0, 0])
    return s


def main() -> None:
    unit()  # import numpy and warm up before the first timed unit
    records = array.array("d")
    end = time.monotonic() + LIFETIME_S
    while time.monotonic() < end:
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break  # input closed (or written to): stop
        start = time.monotonic()
        began = time.perf_counter()
        unit()
        records.extend((start, time.perf_counter() - began))
    sys.stdout.buffer.write(records.tobytes())
    sys.stdout.flush()


class SpeedProbe:
    """Run probe.py beside the children for the length of a ``with`` block."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = None
        self.starts: list = []
        self.seconds: list = []

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())], env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate(input=b"", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        records = array.array("d")
        records.frombytes(out[:len(out) - len(out) % (2 * records.itemsize)])
        self.starts = list(records[0::2])
        self.seconds = list(records[1::2])
        return False

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time taken over [start, end] into seconds at
        the reference speed: REFERENCE_S over the mean unit time within it.

        With fewer than MIN_UNITS units inside, the MIN_UNITS units nearest
        the middle of the interval are used.
        """
        inside = [d for t, d in zip(self.starts, self.seconds)
                  if start <= t and t + d <= end]
        if len(inside) < MIN_UNITS:
            middle = (start + end) / 2
            nearest = sorted(zip(self.starts, self.seconds),
                             key=lambda rec: abs(rec[0] - middle))
            inside = [d for _, d in nearest[:MIN_UNITS]]
        if not inside:
            raise RuntimeError("the speed probe recorded nothing")
        return REFERENCE_S * len(inside) / sum(inside)


if __name__ == "__main__":
    main()
