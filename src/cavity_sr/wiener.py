"""Reproducible Wiener-increment streams.

chunk_stream(master_seed, chunk_index) is a sequential generator keyed on
(master_seed, chunk_index), a pure function of the two, so results are
independent of execution order and thread count.  A chunk is the unit of
the noise stream, not of vectorization: the ensemble runner partitions
trajectories into fixed-size chunks (CHUNK_SIZE, independent of worker
count and of how chunks are grouped into state blocks), so the increments
seen by trajectory m depend only on (master_seed, m // CHUNK_SIZE,
m % CHUNK_SIZE, step).
"""

from __future__ import annotations

import numpy as np

# Trajectories per noise stream. Fixed: changing it changes the mapping of
# trajectories to noise streams (but never the statistics).
CHUNK_SIZE = 256


def chunk_stream(master_seed: int, chunk_index: int) -> np.random.Generator:
    """Sequential generator for one ensemble chunk."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(chunk_index,))
    return np.random.default_rng(seq)
