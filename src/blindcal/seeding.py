"""Deterministic seed derivation.

Every random quantity in the library flows from a single base seed through
:func:`derive_seed`, so runs are reproducible from the configuration alone
and independent trials can be generated out of order (or on separate
workers) without touching shared RNG state.
"""

import hashlib
import struct

from .errors import check_seed

_MASK64 = (1 << 64) - 1


def derive_seed(base: int, labels=()) -> int:
    """Chain-hash labeled indices onto a base seed.

    Each ``(name, index)`` pair folds into the running 64-bit state via
    BLAKE2b, so the result is order sensitive and composable:
    ``derive_seed(derive_seed(s, [a]), [b]) == derive_seed(s, [a, b])``.

    Parameters
    ----------
    base : integer seed, taken mod 2^64 (negative and larger ints wrap)
    labels : iterable of (str, int) pairs, e.g. [("cell", 3), ("trial", 7)]

    A base or index that is not an integer (1.5, but also 2.0) raises
    ParameterError rather than being truncated.
    """
    seed = check_seed(base, "base seed") & _MASK64
    for name, index in labels:
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<Q", seed))
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(struct.pack("<Q", check_seed(index, name) & _MASK64))
        seed = int.from_bytes(h.digest(), "little")
    return seed
