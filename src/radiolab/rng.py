"""Named, versioned PRNG stream for bit-reproducible corpora.

The generator is splitmix64 ("splitmix64/v1"), a 64-bit splittable stream with
platform-independent integer arithmetic, so seeded corpora are identical across
machines and Python versions.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        # largest multiple of n that fits in 64 bits
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def bernoulli(self, p: float) -> bool:
        """True with probability p (p compared against a 53-bit uniform)."""
        if p >= 1.0:
            return True
        if p <= 0.0:
            return False
        return (self.next_u64() >> 11) < p * (1 << 53)
