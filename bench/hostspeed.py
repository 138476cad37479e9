"""The host's speed, sampled while a round runs.

The benchmark's virtual machine shares its cores with other tenants, and
its speed drifts by tens of percent over minutes: the same round can take
half again as long in one run as in the next.  No run length averages
that out, since the drift is slower than a run.  So a round samples the
host's speed as it goes.  Every INTERVAL_S of the round a timer signal
runs kernel(), a fixed piece of pure-Python work (a graph search building
lists, dicts and frozensets), and records how long it took.  The handler's
own time is kept apart, so that it can be taken out of every figure it
interrupts.

factor() is REFERENCE_S over the round's median kernel time: 1 when the
host runs at the reference speed, below 1 when it runs slow.  Times
multiplied by it are reference seconds, the seconds the round would have
taken at that speed.  REFERENCE_S is the median kernel time on the machine
where the benchmark was built (see the README) and must not change, or
figures taken before and after the change are no longer comparable.
"""
from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.1
REFERENCE_S = 0.0010


_NODES = 389
_EDGES = tuple((i, (i * k + c) % _NODES) for k, c in ((7, 3), (13, 5)) for i in range(_NODES))


def kernel() -> int:
    """About a millisecond of interpreter work; the same work every call.

    A breadth-first search over a fixed graph that builds lists, dicts and
    frozensets on the way, the kind of work lcltrees does.
    """
    adj: dict = {}
    for a, b in _EDGES:
        adj.setdefault(a, []).append(b)
    seen = {0: 0}
    frontier = [0]
    states = set()
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen[w] = seen[v] + 1
                    nxt.append(w)
                states.add(frozenset((v, w % 5)))
        frontier = nxt
    return len(states) + sum(sorted(seen.values())[:10])


class HostSpeed:
    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0  # time spent in the handler, kernel and bookkeeping

    def _sample(self, _signum, _frame) -> None:
        t = time.perf_counter()
        kernel()
        done = time.perf_counter()
        self.samples.append(done - t)
        self.handler_s += time.perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Reference seconds per wall second of this round."""
        return REFERENCE_S / statistics.median(self.samples)
