"""The host's current speed, sampled by timing a fixed job during each run.

The benchmark's host is a few cores of a shared machine whose speed drifts
by up to twofold over minutes, for reasons no process inside it can see:
``run_scenario`` repeated with the same inputs in one process took 0.9 s to
1.7 s, in user CPU time as much as in wall time.  A fixed job timed while
the run goes on slows down with it.  The benchmark scales each run's times
by ``REFERENCE_ROUND_S`` over the job's time per round in that run, so its
time metrics are seconds at the speed the host had when the reference was
taken.  A change to fogsim moves them; the host's drift mostly does not.

The job mixes what fogsim's hot paths do: small objects with slots, dict
lookups by string key, sorts by a float key, generator sums.  It runs with
the garbage collector off and touches nothing of fogsim, so neither
fogsim's code nor any gc setting it makes can change its time.
"""

from __future__ import annotations

import gc
import random
import signal
from time import perf_counter

# About the median time per round of the job in a worker on the host of
# baseline.json, in seconds.  It only sets the scale of the scaled times.
REFERENCE_ROUND_S = 0.002
# A slice of the job every PERIOD_S seconds costs about 3% of the run.
PERIOD_S = 0.1
SLICE_ROUNDS = 2
# Rounds timed after a run, so that a run shorter than PERIOD_S has a sample.
FINAL_ROUNDS = 20


class _Item:
    __slots__ = ("index", "weight", "key")

    def __init__(self, index: int, weight: float, key: str):
        self.index, self.weight, self.key = index, weight, key


def _job(rounds: int) -> int:
    rng = random.Random(7)
    acc = 0
    for _ in range(rounds):
        items = [_Item(i, rng.random(), str(i)) for i in range(2000)]
        by_key = {item.key: item for item in items}
        items.sort(key=lambda item: item.weight)
        for item in items:
            acc += by_key[item.key].index
        acc += sum(item.index for item in items if item.weight < 0.5)
    return acc


def calibrate(rounds: int) -> float:
    """Seconds ``rounds`` rounds of the fixed job take now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _job(rounds)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times a slice of the job every ``PERIOD_S`` of wall time, from SIGALRM.

    :meth:`clock` is ``perf_counter`` less the time spent in slices, so
    intervals read from it leave the sampling out.  Python runs the handler
    between bytecodes of the main thread; it reads and writes nothing the
    program uses.
    """

    def __init__(self):
        self.spent = 0.0
        self.rounds = 0
        self._previous = None

    def _slice(self, signum, frame):
        self.spent += calibrate(SLICE_ROUNDS)
        self.rounds += SLICE_ROUNDS

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent += calibrate(FINAL_ROUNDS)
        self.rounds += FINAL_ROUNDS

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no slice ran in between
                return now - spent

    def round_s(self) -> float:
        """The job's mean time per round over the samples taken."""
        return self.spent / self.rounds
