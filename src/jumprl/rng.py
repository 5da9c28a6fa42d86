"""Splittable counter-based random streams.

Every stochastic routine in the library draws from a Philox generator keyed
by (master seed, *stream key) through numpy's SeedSequence spawn mechanism.
Distinct keys give statistically independent streams, so batches of paths can
be simulated in any order (or in parallel) and still reproduce bit-identical
results.

`stream` builds the generator through `np.random.SeedSequence` and is the
reference. The path simulator builds none per path:

- `philox_keys` derives the Philox keys of a run of consecutive paths at once.
  It follows SeedSequence's documented hashing (pool size 4, `mix_entropy`,
  then `generate_state(2, uint64)`). The words every row shares (the master
  seed, whose pool is cached, and the prefix, such as the episode) are mixed
  in plain Python ints. Only the path index differs from row to row. The
  hashes of its low words do not depend on the pool, so they are cached per
  run of paths, and each call mixes its pool into them in one round of
  wrapping uint32 NumPy arithmetic over all rows. A path index of 2^32 or
  more takes one more round per higher word, for the rows that have it.
  `philox_key` is the one-row case.
- `thread_generator` holds one Philox generator per thread, and `path_rng`
  re-points it to each path's stream (derived key, zero counter, empty
  buffer); its draws then equal the fresh stream's bit for bit.
"""

from __future__ import annotations

import functools
import operator
import os
import threading

import numpy as np

from .errors import ConfigurationError

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_ZEROS4 = (0, 0, 0, 0)


_POWERS_A = np.array([pow(_MULT_A, j, 1 << 32) for j in range(_POOL_SIZE + 1)],
                     dtype=np.uint32)
# the run of hash constants that generate_state hashes the pool with:
# word j is XORed with the j-th and multiplied by the next
_OUTPUT_CONSTS = [_INIT_B * pow(_MULT_B, j, 1 << 32) & _MASK32 for j in range(_POOL_SIZE + 1)]
_OUTPUT_XOR = np.array(_OUTPUT_CONSTS[:-1], dtype=np.uint32)
_OUTPUT_MULT = np.array(_OUTPUT_CONSTS[1:], dtype=np.uint32)
_local = threading.local()  # each thread's generator, see thread_generator


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for stream `key` under `master_seed`."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _words(n: int) -> list[int]:
    """Little-endian uint32 words of n, as SeedSequence splits an integer."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hashed(word: int, hash_const: int, times: int = _POOL_SIZE) -> tuple[list[int], int]:
    """SeedSequence's hashmix of word with each of the next `times` hash
    constants: (the hashes, the next hash constant)."""
    hashes = []
    for _ in range(times):
        value = word ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        hashes.append(value ^ value >> 16)
    return hashes, hash_const


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y, as ints or uint32 arrays."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: list, hash_const: int, words) -> tuple[list, int]:
    """Mix entropy words past the pool size into every pool word, in ints."""
    for word in words:
        hashes, hash_const = _hashed(word, hash_const)
        pool = [_mix(x, y) for x, y in zip(pool, hashes)]
    return pool, hash_const


@functools.lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> tuple[tuple, int]:
    """Pool words and hash constant after mixing the master seed's entropy.

    A non-empty spawn key makes SeedSequence pad the master seed's words to
    the pool size, so the first four words always come from the master seed.
    """
    entropy = _words(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool, hash_const = [], _INIT_A
    for word in entropy[:_POOL_SIZE]:
        (value,), hash_const = _hashed(word, hash_const, 1)
        pool.append(value)
    for src in range(_POOL_SIZE):
        hashes, hash_const = _hashed(pool[src], hash_const, _POOL_SIZE - 1)
        for dst, value in zip([d for d in range(_POOL_SIZE) if d != src], hashes):
            pool[dst] = _mix(pool[dst], value)
    pool, hash_const = _absorb(pool, hash_const, entropy[_POOL_SIZE:])
    return tuple(pool), hash_const


@functools.lru_cache(maxsize=32)
def _path_terms(hash_const: int, low_first: int, count: int) -> np.ndarray:
    """The path words' side of _mix for the rows of a run: _MIX_MULT_R times
    the hashes of each row's low word (low_first + i, wrapping), read-only.

    They depend on the hash constant and the run, not on the pool, so batches
    that differ only in the prefix (the episode) share them. Nothing writes
    to a cached array, so threads may share it.
    """
    low = np.arange(count, dtype=np.uint32) + np.uint32(low_first)
    consts = hash_const * _POWERS_A
    terms = (low[:, None] ^ consts[:-1]) * consts[1:]
    terms ^= terms >> 16
    terms *= np.uint32(_MIX_MULT_R)
    terms.setflags(write=False)
    return terms


def philox_keys(master_seed: int, prefix: tuple, first: int, count: int) -> np.ndarray:
    """Philox keys of the streams (master_seed, *prefix, first + i), i < count.

    Returns a (count, 2) uint64 array whose row i is the key that
    `stream(master_seed, *prefix, first + i)` uses.
    """
    pool, hash_const = _seed_pool(operator.index(master_seed))
    pool, hash_const = _absorb(pool, hash_const, [w for k in prefix for w in _words(int(k))])
    # row i's last key word is first + i. Its low word differs from row to
    # row, so it is mixed into all rows at once; uint32 arithmetic wraps as
    # SeedSequence's does.
    first = operator.index(first)
    pool = (np.array([_MIX_MULT_L * x & _MASK32 for x in pool], dtype=np.uint32)
            - _path_terms(hash_const, first & _MASK32, count))
    pool ^= pool >> 16
    # count < 2^32, so the words above the low word are those of first >> 32,
    # or of one more in the rows from `split` on, where the low word carried;
    # every row of a group absorbs the same words
    split = min(count, (1 << 32) - (first & _MASK32))
    for rows, high in ((pool[:split], first >> 32), (pool[split:], (first >> 32) + 1)):
        upper = _words(high) if high else []  # raises for a negative first
        if not rows.size:
            continue
        row_const = hash_const * int(_POWERS_A[-1]) & _MASK32
        for word in upper:
            hashes, row_const = _hashed(word, row_const)
            rows[...] = _mix(rows, np.array(hashes, dtype=np.uint32))
    pool ^= _OUTPUT_XOR
    pool *= _OUTPUT_MULT
    pool ^= pool >> 16
    # word pairs (low, high) of each row; '<u4' words read as '<u8' are low | high << 32
    return pool.astype("<u4", copy=False).view("<u8")


def philox_key(master_seed: int, *key: int) -> tuple[int, int]:
    """The Philox key that `stream(master_seed, *key)` uses; key must be non-empty."""
    low, high = philox_keys(master_seed, key[:-1], int(key[-1]), 1)[0].tolist()
    return low, high


def thread_generator() -> np.random.Generator:
    """This thread's Philox generator, for `path_rng` to re-point.

    One per thread, so chunks simulated at once on worker threads never
    re-point a generator another thread is drawing from.
    """
    try:
        return _local.generator
    except AttributeError:
        _local.generator = np.random.Generator(np.random.Philox(0))
        return _local.generator


def path_rng(master_seed: int, episode: int, path: int,
             reuse: np.random.Generator | None = None, key=None) -> np.random.Generator:
    """Generator for one simulated path, keyed by (seed, episode, path).

    Without `reuse` this is a fresh `stream(master_seed, episode, path)`.
    With a caller-owned Philox generator, that generator is re-pointed to the
    same stream (derived key, zero counter, empty buffer) and returned; its
    draws then equal the fresh stream's bit for bit. `key` is the stream's
    Philox key when the caller has derived it already (`philox_keys`).
    """
    if reuse is None:
        return stream(master_seed, episode, path)
    if key is None:
        key = philox_key(master_seed, episode, path)
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return reuse


def thread_cap() -> int:
    """Worker-thread cap from JUMPRL_THREADS (unset = 1 = sequential).

    Raises ConfigurationError unless a set value is a positive integer.
    """
    raw = os.environ.get("JUMPRL_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigurationError(f"JUMPRL_THREADS must be a positive integer, got {raw!r}")
    return cap
