"""Deterministic sharding helpers: fixed shard layout, ordered reduction.

Shard boundaries depend only on the requested sample count, and every shard
draws from its own (seed, shard_index) substream, so results are bit-identical
for any worker count.  A shard's stream is laid out as consecutive stretches of
one uniform per sample, one stretch per variate; `shard_cursors` opens each
stretch at any of its draws, so a shard can be read in blocks of any size, and
its blocks split among workers, without changing a draw.
"""

from __future__ import annotations

import numpy as np

SHARD_SIZE = 1 << 20


def shard_sizes(samples: int) -> list[int]:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return [min(SHARD_SIZE, samples - i * SHARD_SIZE)
            for i in range((samples + SHARD_SIZE - 1) // SHARD_SIZE)]


def shard_cursors(seed: int, index: int, stretches: int, size: int,
                  start: int) -> list[np.random.Generator]:
    """Generators at uniform `start` of each of the `stretches` stretches of `size`
    uniforms in shard `index`'s stream: the k-th is the shard's PCG64 advanced by
    k * size + start outputs, since Generator.random takes one 64-bit output per
    float64 (a jump ahead, L'Ecuyer et al., Oper. Res. 50(6), 2002).  Reading the
    k-th cursor in blocks gives the k-th of `stretches` calls rng.random(size)
    made one after another on the shard's generator, from its `start`-th draw on,
    draw for draw."""
    ss = np.random.SeedSequence([int(seed), int(index)])
    return [np.random.Generator(np.random.PCG64(ss).advance(k * size + start))
            for k in range(stretches)]


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
