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
  then `generate_state(2, uint64)`) in wrapping uint64 NumPy arithmetic
  masked to 32 bits. The hash constants do not depend on the data, so each
  absorbed key word updates the pools of all rows together; a path index of
  2^32 or more takes extra masked rounds. The pool mixed from the master seed
  alone is cached. `philox_key` is the one-row case.
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
                     dtype=np.uint64)
# the run of hash constants that generate_state hashes the pool with
_OUTPUT_CONSTS = np.array([_INIT_B * pow(_MULT_B, j, 1 << 32) & _MASK32
                           for j in range(_POOL_SIZE + 1)], dtype=np.uint64)
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


def _consts(hash_const, count: int) -> np.ndarray:
    """hash_const and the `count` constants that hashmix advances it to."""
    return hash_const * _POWERS_A[:count + 1] & _MASK32


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of the last axis of values with a run of hash constants:
    XOR with consts[:-1], multiply by consts[1:]."""
    hashed = (values ^ consts[:-1]) * consts[1:] & _MASK32
    return hashed ^ (hashed >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: np.ndarray, hash_const, words: np.ndarray,
            n_words: np.ndarray | None = None):
    """Mix entropy words past the pool size into every pool word.

    pool is (rows, 4) and column w of words holds each row's w-th word; a row
    with n_words <= w keeps its pool through that round. The hash constants
    depend only on the word's position, so a round updates all rows at once.
    """
    for w in range(words.shape[1]):
        consts = _consts(hash_const, _POOL_SIZE)
        mixed = _mix(pool, _hash(words[:, w, None], consts))
        pool = mixed if n_words is None else np.where((n_words > w)[:, None], mixed, pool)
        hash_const = consts[-1]
    return pool, hash_const


@functools.lru_cache(maxsize=64)
def _seed_pool(master_seed: int):
    """Pool (1, 4) and hash constant after mixing the master seed's entropy.

    A non-empty spawn key makes SeedSequence pad the master seed's words to
    the pool size, so the first four words always come from the master seed.
    """
    entropy = _words(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    consts = _consts(_INIT_A, _POOL_SIZE)
    pool = _hash(np.array([entropy[:_POOL_SIZE]], dtype=np.uint64), consts)
    hash_const = consts[-1]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                consts = _consts(hash_const, 1)
                pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], consts)[:, 0])
                hash_const = consts[-1]
    pool, hash_const = _absorb(pool, hash_const,
                               np.array([entropy[_POOL_SIZE:]], dtype=np.uint64))
    pool.setflags(write=False)
    return pool, hash_const


def philox_keys(master_seed: int, prefix: tuple, first: int, count: int) -> np.ndarray:
    """Philox keys of the streams (master_seed, *prefix, first + i), i < count.

    Returns a (count, 2) uint64 array whose row i is the key that
    `stream(master_seed, *prefix, first + i)` uses.
    """
    pool, hash_const = _seed_pool(operator.index(master_seed))
    prefix_words = [w for k in prefix for w in _words(int(k))]
    pool, hash_const = _absorb(pool, hash_const, np.array([prefix_words], dtype=np.uint64))
    # row i's last key word is first + i; count < 2^32, so the words above its
    # low word are those of first >> 32, or of one more where the low word carried
    first = operator.index(first)
    low = (first & _MASK32) + np.arange(count, dtype=np.uint64)
    carry = (low >> 32).astype(np.intp)
    uppers = [_words(h) if h else [] for h in (first >> 32, (first >> 32) + 1)]
    width = len(uppers[carry[-1]]) if count else 0
    words = np.zeros((count, 1 + width), dtype=np.uint64)
    words[:, 0] = low & _MASK32
    for c, upper in enumerate(uppers):
        if len(upper) <= width:
            words[carry == c, 1:1 + len(upper)] = upper
    n_words = None if len(uppers[0]) == width else 1 + np.array([len(u) for u in uppers])[carry]
    pool, _ = _absorb(pool, hash_const, words, n_words)
    out = _hash(pool, _OUTPUT_CONSTS)
    return out[:, 0::2] | out[:, 1::2] << 32


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
