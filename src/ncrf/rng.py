"""Deterministic, splittable random streams.

One root seed drives everything that is random in the package: weight
initialization, dropout masks, record shuffling, and synthetic data.
Streams are derived by name rather than by call order, so adding a new
consumer never silently shifts the randomness seen by existing ones.
The underlying bit generator is counter-based (Philox).
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ParameterError


def _tag_to_words(tag: object) -> tuple[int, ...]:
    if isinstance(tag, (int, np.integer)):
        v = int(tag) & 0xFFFFFFFFFFFFFFFF
        return (v & 0xFFFFFFFF, v >> 32)
    return (zlib.crc32(str(tag).encode("utf-8")),)


class SplitRng:
    """Seeded generator factory with stable, name-addressed children."""

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        self._spawn_key = _spawn_key

    def child(self, *tags: object) -> "SplitRng":
        """Derive an independent stream identified by the tag path."""
        words: tuple[int, ...] = self._spawn_key
        for tag in tags:
            words = words + _tag_to_words(tag)
        return SplitRng(self.seed, words)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator for this node; same node, same stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._spawn_key)
        return np.random.Generator(np.random.Philox(ss))
