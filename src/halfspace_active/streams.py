"""Named, reproducible random substreams.

Every source of randomness in the package flows from one master seed
through substreams addressed by string/int labels, so enlarging one Monte
Carlo estimate never perturbs the draws of another.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["substream"]

_KEY_BYTES = 8


def _label_key(label) -> int:
    """Stable 64-bit key for a stream label (int passes through)."""
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:_KEY_BYTES], "little")


def substream(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator for the named substream.

    Same (seed, labels) always yields byte-identical draw sequences;
    distinct label paths are statistically independent.
    """
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(master_seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=tuple(_label_key(lbl) for lbl in labels),
    ))
