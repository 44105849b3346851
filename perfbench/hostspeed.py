"""Host speed probe: how fast the CPUs ran while the program was timed.

On a shared host the speed of a vCPU swings by a fifth from one second
to the next and drifts by a third over minutes, with no steal time to
subtract: process CPU time tracks wall time.  Timings of the program
alone then spread past any useful bound.  The probe measures that speed
where and when the program runs: a ``SIGPROF`` timer interrupts every
process of the measured section (the sample process and, through a fork
hook, every worker it forks) every ``PERIOD_S`` of its CPU time and
times a fixed reference kernel there, on the same vCPU, between two
bytecodes of the program.

``speed`` is the mean over all those ticks of ``NOMINAL_S`` over the
kernel's duration: 1.0 when the host runs the kernel at its nominal
speed, 0.8 when every tick took a quarter longer.  A wall time
multiplied by ``speed`` is in *reference seconds*: what it would have
taken at nominal speed.  The kernel mixes dictionary updates,
small matrix products and sorts, like the program's own inner loops; of
the kernels tried it tracked the program best (``README.md``).

The two kernel runs per tick add 1–2% to the measured section, on every
commit alike.
"""

from __future__ import annotations

import os
import signal
import struct
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

#: CPU time of a process between two ticks.
PERIOD_S = 0.02
#: Duration of one kernel at the nominal host speed.  It only sets the
#: scale of reference seconds (ticks on a shared 2-vCPU host took 0.9 to
#: 2.4 times as long), so it must never change between two compared runs.
NOMINAL_S = 1.3e-4

_MATRIX = np.random.RandomState(0).rand(16, 16)
_TICK = struct.Struct("d")

#: Directory ticks are logged to while a probe is open (one file per
#: process), and this process's log descriptor.
_log_dir: Optional[Path] = None
_fd: Optional[int] = None


def kernel() -> None:
    """The fixed reference work timed at every tick."""
    counts: dict = {}
    for k in range(600):
        counts[k % 37] = counts.get(k % 37, 0) + k
    a = _MATRIX
    for _ in range(15):
        a = np.sort(a @ _MATRIX, axis=1)


def _on_tick(signum, frame) -> None:
    if _fd is None:
        return
    kernel()  # warm-up: time the host, not the cache state the program left
    start = time.perf_counter()
    kernel()
    os.write(_fd, _TICK.pack(time.perf_counter() - start))


def _arm() -> None:
    """Open this process's tick log and start its timer."""
    global _fd
    _fd = os.open(
        _log_dir / f"ticks-{os.getpid()}", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
    )
    signal.signal(signal.SIGPROF, _on_tick)
    signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)


def _after_fork_in_child() -> None:
    # Timers are not inherited across fork: a worker forked inside an
    # open probe starts its own, logging to its own file.
    global _fd
    _fd = None
    if _log_dir is not None:
        _arm()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Probe:
    """Context manager: probe the host's speed over a section of work.

    Every process that runs inside the section, including workers forked
    in it, logs its ticks under ``log_dir``; ``speed`` is read after the
    section ends and its workers have exited.
    """

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.ticks: List[float] = []

    def __enter__(self) -> "Probe":
        global _log_dir
        self.log_dir.mkdir(parents=True)
        _log_dir = self.log_dir
        _arm()
        _on_tick(signal.SIGPROF, None)  # a section shorter than a period still has a tick
        return self

    def __exit__(self, *exc) -> None:
        global _log_dir, _fd
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if _fd is not None:
            os.close(_fd)
        _log_dir, _fd = None, None
        for path in sorted(self.log_dir.iterdir()):
            data = path.read_bytes()
            self.ticks += [t for (t,) in _TICK.iter_unpack(data[: len(data) // 8 * 8])]

    @property
    def speed(self) -> float:
        if not self.ticks:
            raise RuntimeError("the host speed probe recorded no tick")
        return sum(NOMINAL_S / t for t in self.ticks) / len(self.ticks)
