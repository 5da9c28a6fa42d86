"""Splittable counter-based random streams.

Every stochastic routine in the library draws from a Philox generator keyed
by (master seed, *stream key) through numpy's SeedSequence spawn mechanism.
Distinct keys give statistically independent streams, so batches of paths can
be simulated in any order (or in parallel) and still reproduce bit-identical
results.

`stream` builds the generator through `np.random.SeedSequence` and is the
reference. `path_rng` can instead re-point a caller-owned generator: it derives
the same Philox key with SeedSequence's documented hashing (pool size 4,
`mix_entropy`, then `generate_state(2, uint64)`) in plain integers, caching
the pool mixed from (master seed, *key[:-1]) so that each path hashes only its
last key word.
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


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _absorb(pool: tuple, hash_const: int, words: list[int]) -> tuple[tuple, int]:
    """Mix entropy words past the pool size into every pool word.

    This is `_mix(pool[dst], _hashmix(word, ...))` written out, as it runs
    once per derived key.
    """
    pool = list(pool)
    for word in words:
        for dst in range(_POOL_SIZE):
            hashed = word ^ hash_const
            hash_const = (hash_const * _MULT_A) & _MASK32
            hashed = (hashed * hash_const) & _MASK32
            hashed ^= hashed >> 16
            mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed) & _MASK32
            pool[dst] = mixed ^ (mixed >> 16)
    return tuple(pool), hash_const


@functools.lru_cache(maxsize=64)
def _mixed_pool(master_seed: int, prefix: tuple) -> tuple[tuple, int]:
    """Pool and hash constant after mixing the entropy of (master_seed, *prefix).

    A non-empty spawn key makes SeedSequence pad the master seed's words to
    the pool size, so the first four words always come from the master seed.
    """
    entropy = _words(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for k in prefix:
        entropy += _words(k)
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        hashed, hash_const = _hashmix(word, hash_const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], hashed)
    return _absorb(tuple(pool), hash_const, entropy[_POOL_SIZE:])


def philox_key(master_seed: int, *key: int) -> tuple[int, int]:
    """The Philox key that `stream(master_seed, *key)` uses; key must be non-empty."""
    pool, hash_const = _mixed_pool(operator.index(master_seed),
                                   tuple(int(k) for k in key[:-1]))
    pool, _ = _absorb(pool, hash_const, _words(int(key[-1])))
    out = []
    hash_const = _INIT_B
    for word in pool:
        word ^= hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = (word * hash_const) & _MASK32
        out.append(word ^ (word >> 16))
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def path_rng(master_seed: int, episode: int, path: int,
             reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Generator for one simulated path, keyed by (seed, episode, path).

    Without `reuse` this is a fresh `stream(master_seed, episode, path)`.
    With a caller-owned Philox generator, that generator is re-pointed to the
    same stream (derived key, zero counter, empty buffer) and returned; its
    draws then equal the fresh stream's bit for bit.
    """
    if reuse is None:
        return stream(master_seed, episode, path)
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": philox_key(master_seed, episode, path)},
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
