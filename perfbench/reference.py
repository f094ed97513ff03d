"""Fixed reference tasks that measure how fast the machine runs right now.

The benchmark's machine shares its cores with others, and the same work
can take up to 1.8x more CPU time from one minute to the next, in phases
that change within seconds. So every request time is divided by the time of a
reference task run next to it, and scaled back to seconds with the task's
time on a quiet machine. A regression in the program still shows in full,
because the tasks never call the program; a phase that slows the machine
slows both, and cancels.

A phase does not slow every kind of work alike, so each workload is
calibrated by the task whose work is most like its own:

* ``SMALL`` -- interpreter-bound arithmetic on small ``Fraction`` values,
  with ``str`` and JSON emission, as in ``identities`` and ``cli``;
* ``BIG`` -- ``Fraction`` arithmetic on operands of ~20 kbit, where the
  big-int multiply and gcd dominate, as in deep-term.

In recordings of 10-21 passes across such phases, on 2 cores, the
coefficient of variation of the pass time (wall seconds) was:

=============  ====  ==============  ============
workload       raw   by ``SMALL``    by ``BIG``
=============  ====  ==============  ============
catalog-sweep  11%   3%              5%
cli-table      18%   4%              11%
deep-term      6%    7%              3%
=============  ====  ==============  ============
"""
from __future__ import annotations

import json
from fractions import Fraction
from time import process_time

#: The clock of every timing in the benchmark: CPU seconds of this process.
#: The workloads are single-threaded and compute-bound with no I/O, so CPU
#: time is their latency, without the time the host takes the core away
#: (steal), which alone made wall time swing by 25% between runs of 0.1 s.
clock = process_time

_A, _B = Fraction(3, 2), Fraction(-5, 3)
_F1 = Fraction(3**9000 * 11, 2**12000 * 7)
_F2 = Fraction(5**7000 * 13, 3**5000 * 17**2000)


def _small() -> None:
    for _ in range(3):
        t0, t1 = Fraction(0), Fraction(1)
        out = []
        for n in range(2, 90):
            t0, t1 = t1, (_A if n % 2 == 0 else _B) * t1 + t0
            out.append(str(t1))
        json.dumps(out)


def _big() -> None:
    _F1 * _F2 + _F2


class Task:
    """A reference task and its seconds on a quiet 2-core machine (Python 3.11.7).

    The quiet seconds only set the scale in which calibrated times read.
    """

    def __init__(self, run, quiet_seconds: float):
        self.run = run
        self.quiet_seconds = quiet_seconds

    def seconds(self) -> float:
        """CPU seconds of one run of the task."""
        start = clock()
        self.run()
        return clock() - start


SMALL = Task(_small, 0.001)
BIG = Task(_big, 0.0024)
