"""Deterministic random streams.

All randomness in the package flows through PCG64 generators keyed by a
64-bit user seed plus a small integer stream id.  The split is done with
``numpy.random.SeedSequence(seed, spawn_key=(stream,))``, which hashes the
pair with a fixed, platform-independent algorithm, so kernel sampling and
sequence sampling never share a stream and every experiment is
reproducible bit for bit for a given numpy version.
"""

from __future__ import annotations

import numpy as np

# Stream ids.  New consumers should claim a fresh constant here.
KERNEL_STREAM = 0
SEQUENCE_STREAM = 1
TEXT_STREAM = 2


def generator(seed: int, stream: int) -> np.random.Generator:
    """Return the PCG64 generator for (seed, stream)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))
