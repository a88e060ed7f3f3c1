"""Seedable random streams.

All randomness in the package flows through Philox counter-based generators
keyed by a 64-bit seed plus an integer path.  Distinct paths give independent
substreams, so sample budgets can be partitioned across workers while the
merged result stays identical for every partition.  `ordered_imap` is that
fan-out: results come back in call order for every worker count.
"""

import numpy as np


def generator(seed, *path):
    """Return a fresh Philox generator for (seed, path).

    The same (seed, path) always yields the same stream, on every platform.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed, *path):
    """Collapse (seed, path) into a single reproducible 64-bit seed."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def ordered_imap(fn, calls, workers=1):
    """fn(*args) for args in calls, lazily and in call order, over
    min(workers, len(calls)) processes when that is above 1, where fn and its
    arguments must pickle.  A reduction in that order does not depend on the
    split, and it can fold each result in as it arrives."""
    if workers <= 1 or len(calls) <= 1:
        yield from (fn(*args) for args in calls)
        return
    # imported here, since it loads multiprocessing, which one worker never uses
    from concurrent.futures import ProcessPoolExecutor
    # the pool forks all its workers at the first submit, needed or not
    with ProcessPoolExecutor(max_workers=min(workers, len(calls))) as pool:
        yield from pool.map(fn, *zip(*calls))


def ordered_map(fn, calls, workers=1):
    """[fn(*args) for args in calls] by `ordered_imap`."""
    return list(ordered_imap(fn, calls, workers))
