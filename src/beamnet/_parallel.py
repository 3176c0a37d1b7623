"""Deterministic sharding helpers: fixed shard layout, ordered reduction.

Shard boundaries depend only on the requested sample count, and every shard
draws from its own (seed, shard_index) substream, so results are bit-identical
for any worker count.
"""

from __future__ import annotations

import numpy as np

SHARD_SIZE = 1 << 20


def shard_sizes(samples: int, shard: int = SHARD_SIZE) -> list[int]:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return [min(shard, samples - i * shard) for i in range((samples + shard - 1) // shard)]


def shard_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def derive_seed(seed: int, *key: int) -> int:
    """Collapse (seed, key...) into a fresh 64-bit substream seed."""
    ss = np.random.SeedSequence([int(seed), *[int(k) for k in key]])
    return int(ss.generate_state(2, np.uint64)[0])


def run_indexed(fn, count: int, threads: int = 1) -> list:
    """Evaluate fn(i) for i in range(count), results in index order."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # only the pool branch needs it

    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(count)))
