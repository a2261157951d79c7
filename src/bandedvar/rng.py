"""Seedable counter-based random streams with named substreams.

Every source of randomness in the package flows through :func:`substream`,
so a single master seed fully determines simulations, bootstrap draws and
Monte Carlo replications, independently of thread scheduling.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(seed: int, *labels) -> np.random.Generator:
    """Return a Philox generator keyed by a master seed and stream labels.

    The same ``(seed, labels)`` pair always yields the same stream, across
    runs, platforms and worker counts; distinct labels give statistically
    independent streams. Labels may be strings or integers (for example
    ``substream(7, "innovations", rep)``).
    """
    keys = tuple(
        int(lbl) & 0xFFFFFFFF
        if isinstance(lbl, (int, np.integer))
        else zlib.crc32(str(lbl).encode("utf-8"))
        for lbl in labels
    )
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=keys)
    return np.random.Generator(np.random.Philox(seq))

