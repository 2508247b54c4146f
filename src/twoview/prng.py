"""SplitMix64 generator and Fisher-Yates shuffle for reproducible splits.

Dataset splits must be identical across platforms and runs, so they are
driven by an explicitly specified 64-bit generator rather than whatever a
host library happens to ship.  SplitMix64 is the mixing function from
Steele et al.'s SplittableRandom: state advances by the golden-gamma
constant and the output is produced by two xor-shift multiplies.
"""

from __future__ import annotations

from .errors import TwoViewError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit PRNG with platform-independent output."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise TwoViewError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def fisher_yates(items: list, rng: SplitMix64) -> None:
    """Shuffle ``items`` in place with the classic backward Fisher-Yates walk."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
