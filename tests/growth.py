"""Run-time growth of a function of one input size: the linear-time checks.

`growth(fn, make, n)` is CPU time(fn(make(4n))) / time(fn(make(n))), each the
best of 3 runs. Linear growth gives about 4, quadratic growth about 16. Each
run repeats the call often enough that the small input takes at least 10 ms,
so timer resolution and one-off stalls do not decide the ratio.
"""

import time


def _best(fn, arg, reps):
    best = None
    for _ in range(3):
        start = time.process_time()
        for _ in range(reps):
            fn(arg)
        took = time.process_time() - start
        best = took if best is None else min(best, took)
    return best


def growth(fn, make, n) -> float:
    small, large = make(n), make(4 * n)
    reps = 1
    while _best(fn, small, reps) < 0.01:
        reps *= 2
    return _best(fn, large, reps) / _best(fn, small, reps)
