"""Counter-based deterministic randomness.

Sample ``i`` of a stream is a pure function of ``(seed, i)``, so any chunking
or scheduling of the work reproduces the same draws bit for bit.  The mixer
is the splitmix64 finalizer; the scalar and the vectorised numpy paths use
identical arithmetic and are tested for equality.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_WORDK = 0xD1342543DE82EF95

DEFAULT_SEED = 0xC0FFEE


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_u64(seed: int, index: int, word: int = 0) -> int:
    """64 mixed bits for draw ``index`` (word ``word``) of stream ``seed``."""
    return _mix((seed & _MASK) + _GOLDEN * (index + 1) + _WORDK * word)


def _mix_np(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def counter_u64_np(seed: int, indices: np.ndarray, word: int = 0) -> np.ndarray:
    base = np.uint64(seed & _MASK) + np.uint64(_GOLDEN) * (
        indices.astype(np.uint64) + np.uint64(1)
    )
    return _mix_np(base + np.uint64((_WORDK * word) & _MASK))


def counter_words_np(seed: int, index: int, words: np.ndarray) -> np.ndarray:
    """``counter_u64(seed, index, w)`` for every word ``w`` of ``words``.

    The scalar part is summed in Python ints, masked to 64 bits: a numpy
    *scalar* wrapping past 2^64 raises a RuntimeWarning, an array does not."""
    base = ((seed & _MASK) + _GOLDEN * (index + 1)) & _MASK
    return _mix_np(np.uint64(base) + np.uint64(_WORDK) * words.astype(np.uint64))


def sign_matrix(seed: int, m: int, count: int, start: int = 0) -> np.ndarray:
    """(m, count) int8 matrix of +-1 signs for samples start..start+count-1.

    Row 64 w + b is bit b of counter word w (1 for a minus sign), unpacked
    from the words' little-endian bytes."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    words = np.stack([counter_u64_np(seed, idx, word) for word in range((m + 63) // 64)], axis=1)
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")[:, :m]
    return 1 - 2 * bits.T.astype(np.int8, order="C")


def sign_codes(seed: int, m: int, count: int, start: int = 0) -> np.ndarray:
    """uint64 pattern codes of samples start..start+count-1, for 0 < m <= 64.

    Bit j of a code is the bit that sets row j of :func:`sign_matrix` (1 for
    a minus sign), so column i of ``sign_matrix(seed, m, count, start)`` is
    column ``codes[i]`` of ``coeffs.sign_matrix_range(m, 0, 2**m)``."""
    if not 0 < m <= 64:
        raise ValueError(f"sign codes need 0 < m <= 64, got {m}")
    h = counter_u64_np(seed, np.arange(start, start + count, dtype=np.uint64), 0)
    return h & np.uint64((1 << m) - 1)


def sign_vector(seed: int, m: int, index: int) -> list[int]:
    """Scalar twin of :func:`sign_matrix` for a single sample."""
    out = []
    for word in range((m + 63) // 64):
        h = counter_u64(seed, index, word)
        take = min(64, m - 64 * word)
        out.extend(1 - 2 * ((h >> b) & 1) for b in range(take))
    return out


def derive_seed(seed: int, *tags: int) -> int:
    """A child seed for a named sub-stream (worker, experiment, ...)."""
    z = seed & _MASK
    for t in tags:
        z = _mix(z ^ ((t + 0x632BE59BD9B4E019) & _MASK))
    return z
