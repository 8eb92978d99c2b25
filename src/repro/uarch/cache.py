"""Set-associative LRU cache model.

One structural model serves both ends of the hierarchy: a 32 KiB 8-way
instruction cache and a (capacity-scaled) last-level cache.  The model is
trace-driven -- feed it block addresses, read back hits and misses -- and
deliberately simple: LRU replacement, no prefetching, single level.  The
paper's Figure 5 trends (I$ MPKI up with entropy, LLC MPKI down) are
first-order working-set effects that a plain LRU cache captures.

``access_many`` is the vectorized entry point; internally it still walks
the trace in order (cache state is sequential by nature) but avoids
Python-object overhead per access.
"""

from __future__ import annotations


import numpy as np

__all__ = ["SetAssociativeCache"]


class SetAssociativeCache:
    """A set-associative LRU cache.

    Args:
        size_bytes: Total capacity.
        line_bytes: Cache line size (power of two).
        ways: Associativity; ``size_bytes`` must equal
            ``sets * ways * line_bytes`` for some power-of-two set count.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 8) -> None:
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ValueError(f"line size must be a power of two, got {line_bytes}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        if size_bytes <= 0 or size_bytes % (line_bytes * ways):
            raise ValueError(
                f"capacity {size_bytes} not divisible into {ways}-way sets "
                f"of {line_bytes}B lines"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = size_bytes // (line_bytes * ways)
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(
                f"set count {self.n_sets} must be a power of two; "
                f"adjust capacity or associativity"
            )
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1
        # tags[set, way]; lru[set, way] -- larger is more recent.
        self._tags = np.full((self.n_sets, ways), -1, dtype=np.int64)
        self._lru = np.zeros((self.n_sets, ways), dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (cache contents stay warm)."""
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        return bool(self.access_many(np.array([address], dtype=np.int64))[0])

    def access_many(self, addresses: np.ndarray) -> np.ndarray:
        """Access addresses in order; returns a bool hit array."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.ndim != 1:
            raise ValueError(f"addresses must be 1-D, got shape {addresses.shape}")
        lines = addresses >> self._line_shift
        sets = (lines & self._set_mask).astype(np.int64)
        tags = (lines >> (self.n_sets.bit_length() - 1)).astype(np.int64)
        hits = np.empty(addresses.size, dtype=bool)
        cache_tags = self._tags
        cache_lru = self._lru
        clock = self._clock
        for i in range(addresses.size):
            s = sets[i]
            tag = tags[i]
            row = cache_tags[s]
            clock += 1
            way = np.nonzero(row == tag)[0]
            if way.size:
                hits[i] = True
                cache_lru[s, way[0]] = clock
            else:
                hits[i] = False
                victim = int(np.argmin(cache_lru[s]))
                cache_tags[s, victim] = tag
                cache_lru[s, victim] = clock
        self._clock = clock
        n_hits = int(hits.sum())
        self.hits += n_hits
        self.misses += addresses.size - n_hits
        return hits

    def __repr__(self) -> str:
        kib = self.size_bytes / 1024
        return (
            f"SetAssociativeCache({kib:g}KiB, {self.ways}-way, "
            f"{self.line_bytes}B lines)"
        )
