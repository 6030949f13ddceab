"""Deterministic counter-based random streams.

Every stochastic routine in the package takes a StreamKey instead of a bare
seed.  A key addresses an independent Philox stream through the triple
(master seed, replicate index, draw counter), so Monte Carlo replicates can
be generated in any order, on any number of workers, and still reproduce
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_U64 = np.uint64
_MOD = 2**64

# Draw counters within one (seed, replicate): the sample, its observation
# noise, and the bootstrap multipliers of quantile method i at METHOD_DRAW + i.
SAMPLE_DRAW = 0
NOISE_DRAW = 1
METHOD_DRAW = 2


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream.

    Distinct (seed, replicate, draw) triples map to Philox streams that are
    independent by construction; the same triple always yields the same
    stream.
    """

    seed: int
    replicate: int = 0
    draw: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed % _MOD, self.replicate % _MOD], dtype=_U64)
        # Distinct draw counters are 2^128 blocks apart: streams never overlap.
        counter = np.array([0, 0, self.draw % _MOD, 0], dtype=_U64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def child(self, draw: int) -> "StreamKey":
        """Same (seed, replicate) with a different draw counter."""
        return replace(self, draw=draw)

    def for_replicate(self, replicate: int) -> "StreamKey":
        return replace(self, replicate=replicate, draw=0)
