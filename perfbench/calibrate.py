"""Host-speed calibration: a fixed pass of interpreter work timed beside each run.

On a shared host the speed of a core changes with its neighbours' load:
median run times measured seconds or minutes apart differ by 20-50%, in
CPU time as much as in wall time, while no preemption shows.  No statistic
taken within one run removes a slowdown that lasts the whole run, so the
timed loop measures a fixed reference pass next to every run, and the
end-to-end timings run.py reports are scaled to the speed at which that
pass takes REFERENCE_S:

    scaled = measured * REFERENCE_S / (mean calibration time around it)

The pass imports nothing from cgprune, so a change to the program moves the
scaled times and leaves the calibration alone.  It does what cgprune spends
its time on -- JSON-lines parsing, dict and set building, reverse
breadth-first search -- on a graph generated here from a fixed seed.  The
cyclic garbage collector is off during the pass, so the size of the
program's heap does not leak into the calibration.  The host switches
between a fast and a slow speed within a second, so pass times are
bimodal; a scale factor averages passes rather than taking their median,
which would jump between the two.  The first pass in a process runs slow
(the allocator is still growing), so one pass is run and discarded when
the calibration is made.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from collections import deque

# seconds the pass is scaled to; about its median on a 2-core cloud VM
REFERENCE_S = 0.04
_NODES = 2000
_ROUNDS = 4
_SEARCHES = 40


class Calibration:
    def __init__(self) -> None:
        rng = random.Random(7)
        self.text = "\n".join(
            json.dumps({
                "kind": "node", "id": f"t{i}::m{i % 20}()", "project": f"p{i % 7}",
                "calls": [f"t{rng.randrange(_NODES)}::m{rng.randrange(20)}()"
                          for _ in range(3)],
            })
            for i in range(_NODES)
        )
        self._pass()

    def _pass(self) -> int:
        callers: dict[str, set[str]] = {}
        for line in self.text.splitlines():
            record = json.loads(line)
            for callee in record["calls"]:
                callers.setdefault(callee, set()).add(record["id"])
        reached = 0
        for start in list(callers)[:_SEARCHES]:
            seen = {start}
            queue = deque(seen)
            while queue:
                for caller in callers.get(queue.popleft(), ()):
                    if caller not in seen:
                        seen.add(caller)
                        queue.append(caller)
            reached += len(seen)
        return reached

    def measure(self) -> float:
        """Seconds one calibration pass takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(_ROUNDS):
                self._pass()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def scale(elapsed: float, calibrations: list[float]) -> float:
    """`elapsed` at reference speed, from calibrations timed around it."""
    return elapsed * REFERENCE_S / statistics.fmean(calibrations)
