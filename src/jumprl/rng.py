"""Splittable counter-based random streams.

Every stochastic routine in the library draws from a Philox generator keyed
by (master seed, *stream key) through numpy's SeedSequence spawn mechanism.
Distinct keys give statistically independent streams, so batches of paths can
be simulated in any order (or in parallel) and still reproduce bit-identical
results.

`stream` builds the generator through `np.random.SeedSequence` and is the
reference. The path simulator builds none per path:

- `philox_keys` derives the Philox keys of a run of consecutive paths of
  one episode. It follows SeedSequence's documented hashing (pool size 4,
  `mix_entropy`, then `generate_state(2, uint64)`), and keys are a pure
  function of the stream key, so it derives a whole block of episodes at
  once and caches it. A block holds P consecutive episodes, with P the
  largest power of two at most 2048 // count, and starts at a multiple of
  P; so its episodes share every word above the low one. The master seed's
  words are mixed in plain Python ints, and its pool is cached. The
  episode's and then the path's low word differ from row to row: each is
  hashed and mixed into all rows at once, in wrapping uint32 NumPy
  arithmetic. An index of 2^32 or more takes one more round per higher
  word. Blocks are read-only and kept in a bounded LRU cache of 8, at most
  8 x 2048 rows x 16 B = 256 KiB; each call returns a fresh copy of its
  episode's rows. A run of no rows or of more than 2048 is derived the same
  way, as a block of one episode, and not cached.
- `path_rng` re-points a Philox generator, the one a `sde.Workspace` holds,
  to a path's stream (its key from `philox_keys`, zero counter, empty
  buffer); its draws then equal the fresh stream's bit for bit.
"""

from __future__ import annotations

import functools
import operator
import os

import numpy as np

from .errors import ConfigurationError

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_ZEROS4 = (0, 0, 0, 0)
_BLOCK_ROWS = 2048    # rows (episodes x paths) of one cached key block, at most
_CACHED_BLOCKS = 8    # blocks kept: at most 8 x 2048 rows x 16 B = 256 KiB


_POWERS_A = np.array([pow(_MULT_A, j, 1 << 32) for j in range(_POOL_SIZE + 1)],
                     dtype=np.uint32)
# the run of hash constants that generate_state hashes the pool with:
# word j is XORed with the j-th and multiplied by the next
_OUTPUT_CONSTS = [_INIT_B * pow(_MULT_B, j, 1 << 32) & _MASK32 for j in range(_POOL_SIZE + 1)]
_OUTPUT_XOR = np.array(_OUTPUT_CONSTS[:-1], dtype=np.uint32)
_OUTPUT_MULT = np.array(_OUTPUT_CONSTS[1:], dtype=np.uint32)


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
    for word in entropy[_POOL_SIZE:]:  # a seed of 2^128 or more mixes into every word
        hashes, hash_const = _hashed(word, hash_const)
        pool = [_mix(x, y) for x, y in zip(pool, hashes)]
    return tuple(pool), hash_const


def _mix_run(pools: np.ndarray, hash_const: int, first: int,
             count: int) -> tuple[np.ndarray, int]:
    """Mix the key entries first + i (i < count) into pools, an (..., 4)
    uint32 array: (the (..., count, 4) pools, the hash constant after row 0's
    entry).

    The low word differs from row to row, so it is hashed and mixed into all
    rows at once; uint32 arithmetic wraps as SeedSequence's does. count < 2^32,
    so the words above it are those of first >> 32, or of one more in the rows
    from `split` on, where the low word carried; every row of a group absorbs
    the same words.
    """
    low = first & _MASK32
    consts = hash_const * _POWERS_A
    terms = (np.arange(count, dtype=np.uint32) + np.uint32(low))[:, None] ^ consts[:-1]
    terms *= consts[1:]
    terms ^= terms >> 16
    terms *= np.uint32(_MIX_MULT_R)  # the hashed side of _mix
    pools = pools[..., None, :] * np.uint32(_MIX_MULT_L) - terms
    pools ^= pools >> 16
    hash_const = hash_const * int(_POWERS_A[-1]) & _MASK32
    split = min(count, (1 << 32) - low)
    after = []
    for rows, high in ((pools[..., :split, :], first >> 32),
                       (pools[..., split:, :], (first >> 32) + 1)):
        row_const = hash_const
        for word in _words(high) if high else []:  # raises for a negative first
            hashes, row_const = _hashed(word, row_const)
            rows[...] = _mix(rows, np.array(hashes, dtype=np.uint32))
        after.append(row_const)
    return pools, after[0]


def _derive(master_seed: int, start: int, span: int, first: int, count: int) -> np.ndarray:
    """Keys of the streams (master_seed, start + j, first + i), for j < span
    and i < count, as a (span, count, 2) uint64 array.

    The master seed's pool is cached. The episodes start + j must share their
    words above the low one, so that every row reaches the path entry with
    one hash constant: philox_keys aligns a block of a power-of-two span at
    most 2^32 so that they do.
    """
    pool, hash_const = _seed_pool(master_seed)
    pools, hash_const = _mix_run(np.array(pool, dtype=np.uint32), hash_const, start, span)
    keys, _ = _mix_run(pools, hash_const, first, count)
    keys ^= _OUTPUT_XOR
    keys *= _OUTPUT_MULT
    keys ^= keys >> 16
    # word pairs (low, high) of each row; '<u4' words read as '<u8' are low | high << 32
    return keys.astype("<u4", copy=False).view("<u8")


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _key_block(master_seed: int, start: int, span: int, first: int,
               count: int) -> np.ndarray:
    """_derive's block of `span` episodes from `start`, read-only, so that
    threads may share it."""
    block = _derive(master_seed, start, span, first, count)
    block.setflags(write=False)
    return block


def philox_keys(master_seed: int, episode: int, first: int, count: int) -> np.ndarray:
    """Philox keys of the streams (master_seed, episode, first + i), i < count.

    Returns a fresh (count, 2) uint64 array whose row i is the key that
    `stream(master_seed, episode, first + i)` uses. It is one episode's rows
    of the cached block of P episodes that the episode falls in, P being the
    largest power of two at most 2048 // count; a run of no rows, or of more
    rows than a block holds, is derived alone and not cached.
    """
    master_seed, episode, first = map(operator.index, (master_seed, episode, first))
    if not 0 < count <= _BLOCK_ROWS:
        return _derive(master_seed, episode, 1, first, count)[0]
    span = 1 << (_BLOCK_ROWS // count).bit_length() - 1
    start = episode - episode % span
    return _key_block(master_seed, start, span, first, count)[episode - start].copy()


def path_rng(master_seed: int, episode: int, path: int,
             reuse: np.random.Generator, key) -> np.random.Generator:
    """Re-point the Philox generator `reuse` to the stream of one simulated
    path, keyed by (seed, episode, path), and return it.

    `key` is that stream's Philox key, a row of `philox_keys`; the first three
    arguments only name the stream, for a tracer that wraps this call. The
    generator gets the key, a zero counter and an empty buffer, so its draws
    equal those of `stream(master_seed, episode, path)` bit for bit.
    """
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
