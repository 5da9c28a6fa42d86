import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jumprl.errors import ConfigurationError
from jumprl.rng import (path_rng, philox_key, philox_keys, stream, thread_cap,
                        thread_generator)

WORDS = st.integers(min_value=0, max_value=2**70)
SEEDS = st.integers(min_value=0, max_value=2**200)
# first path indices whose batches straddle 2^32 or 2^64 and need extra key words
FIRSTS = st.one_of(WORDS, st.integers(2**32 - 12, 2**32), st.integers(2**64 - 12, 2**64))


def reference_generator(master_seed, *key):
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


def first_draws(gen):
    return (gen.standard_normal(9), gen.random(5), gen.integers(0, 2**31, 3, dtype=np.uint32))


class TestPhiloxKey:
    @settings(max_examples=200, deadline=None)
    @given(master=SEEDS, key=st.lists(WORDS, min_size=1, max_size=4))
    @example(master=2**32, key=[0, 0])
    @example(master=2**128, key=[2**32, 2**32 + 1])
    @example(master=2**128 - 1, key=[2**64, 3])
    @example(master=0, key=[0])
    def test_equals_seed_sequence_state(self, master, key):
        state = np.random.SeedSequence(master, spawn_key=key).generate_state(2, np.uint64)
        assert philox_key(master, *key) == tuple(int(w) for w in state)

    @pytest.mark.parametrize("words", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_word_raises_like_seed_sequence(self, words):
        with pytest.raises(ValueError):
            np.random.SeedSequence(words[0], spawn_key=words[1:])
        with pytest.raises(ValueError, match="non-negative"):
            path_rng(*words, reuse=stream(0))

    def test_concurrent_derivation_matches_reference(self):
        # more workers than keys per episode, and more episodes than the pool
        # cache holds, so threads evict and refill entries under one another
        keys = [(5, episode, path) for episode in range(150) for path in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda k: philox_key(*k), keys, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        want = [tuple(int(w) for w in np.random.SeedSequence(m, spawn_key=(e, p))
                      .generate_state(2, np.uint64)) for m, e, p in keys]
        assert got == want


class TestPhiloxKeys:
    @settings(max_examples=150, deadline=None)
    @given(master=st.one_of(SEEDS, st.integers(2**64, 2**130)), episode=WORDS,
           first=FIRSTS, count=st.integers(0, 12))
    @example(master=2**64 + 1, episode=3, first=2**32 - 5, count=10)
    @example(master=2**200 - 1, episode=2**33, first=2**64 - 4, count=8)
    @example(master=0, episode=0, first=0, count=1)
    @example(master=5, episode=1, first=7, count=0)
    def test_every_row_equals_seed_sequence_state(self, master, episode, first, count):
        keys = philox_keys(master, (episode,), first, count)
        assert keys.shape == (count, 2) and keys.dtype == np.uint64
        want = [np.random.SeedSequence(master, spawn_key=(episode, first + i))
                .generate_state(2, np.uint64).tolist() for i in range(count)]
        assert keys.tolist() == want


    @pytest.mark.parametrize("prefix", [(2**64 + 3, 5), (2**64,), (2**96 + 7,)],
                             ids=["two-entries", "one-entry-2^64", "one-entry-above-2^64"])
    @pytest.mark.parametrize("first", [0, 2**32 - 3, 2**64 - 2])
    def test_multi_word_prefix_equals_seed_sequence_state(self, prefix, first):
        # every prefix word, however many an entry splits into, is mixed into
        # the pool the rows share before any path word
        keys = philox_keys(2**70 + 11, prefix, first, 5)
        want = [np.random.SeedSequence(2**70 + 11, spawn_key=(*prefix, first + i))
                .generate_state(2, np.uint64).tolist() for i in range(5)]
        assert keys.tolist() == want


    def test_cached_path_terms_stay_unwritten(self):
        # each batch mixes its pool into cached per-run hashes; writing to the
        # returned keys must not reach the cache
        keys = philox_keys(9, (0,), 5, 4)
        want = keys.copy()
        keys[...] = 0
        np.testing.assert_array_equal(philox_keys(9, (0,), 5, 4), want)
        np.testing.assert_array_equal(philox_keys(10, (0,), 5, 4), [
            np.random.SeedSequence(10, spawn_key=(0, 5 + i)).generate_state(2, np.uint64)
            for i in range(4)])

    def test_concurrent_batches_match_reference(self):
        # more distinct runs than the cache holds, so worker threads evict and
        # refill cached hashes under one another; every episode shares them
        runs = [(7, episode, first, count) for episode in range(6)
                for first in (0, 3, 2**32 - 2) for count in range(1, 8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda r: philox_keys(r[0], (r[1],), r[2], r[3]).tolist(),
                                    runs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        want = [[np.random.SeedSequence(m, spawn_key=(e, first + i))
                 .generate_state(2, np.uint64).tolist() for i in range(count)]
                for m, e, first, count in runs]
        assert got == want

    # (master seed, prefix, first, count): a desk batch, and runs straddling 2^32 and 2^64
    PINNED = {
        "desk-32": (20240101, (7,), 0, 32),
        "straddling-2^32": (2**70 + 11, (20240101,), 2**32 - 64, 128),
        "straddling-2^64": (3, (2**33, 5), 2**64 - 5, 10),
    }
    # sha256 of each run's key bytes, recorded with numpy 2.4 on x86-64
    DIGESTS = {
        "desk-32": "b3d0e994ec9b6b0368d3340fb7b02eba6a6d07146f4203a335c95ca551edaed1",
        "straddling-2^32": "b31a3c977b6738a842370aecead4d3e5f3ea5b4402b40ba5604cb74f8960ea22",
        "straddling-2^64": "dcaa5602fee52f2c061483bc5d692115583108fb1b351f1e833d9bc61fd72fa4",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_keys_match_recorded_digest(self, case):
        keys = philox_keys(*self.PINNED[case])
        assert keys.dtype == np.uint64 and keys.shape == (self.PINNED[case][3], 2)
        assert hashlib.sha256(keys.tobytes()).hexdigest() == self.DIGESTS[case]


class TestThreadGenerator:
    def test_one_generator_per_thread(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            other = pool.submit(thread_generator).result(timeout=60)
        assert thread_generator() is thread_generator()
        assert other is not thread_generator()


class TestPathRng:
    @settings(max_examples=100, deadline=None)
    @given(master=SEEDS, episode=WORDS, path=WORDS)
    @example(master=2**32, episode=0, path=1)
    @example(master=2**128, episode=2**32, path=2**32 + 7)
    @example(master=2**130 + 5, episode=2**40, path=0)
    def test_repointed_generator_matches_reference(self, master, episode, path):
        used = stream(3, 1, 4)
        used.standard_normal(7)
        used.integers(0, 10, dtype=np.uint32)  # leaves a buffered 32-bit half
        got = path_rng(master, episode, path, reuse=used)
        assert got is used
        for a, b in zip(first_draws(got), first_draws(reference_generator(master, episode, path))):
            np.testing.assert_array_equal(a, b)

    def test_without_reuse_is_fresh_stream(self):
        for a, b in zip(first_draws(path_rng(11, 2, 5)), first_draws(stream(11, 2, 5))):
            np.testing.assert_array_equal(a, b)


class TestThreadCap:
    def test_unset_is_sequential(self, monkeypatch):
        monkeypatch.delenv("JUMPRL_THREADS", raising=False)
        assert thread_cap() == 1

    def test_reads_positive_integer(self, monkeypatch):
        monkeypatch.setenv("JUMPRL_THREADS", "2")
        assert thread_cap() == 2

    @pytest.mark.parametrize("raw", ["abc", "", "1.5", "0", "-2"])
    def test_malformed_value_names_variable(self, monkeypatch, raw):
        monkeypatch.setenv("JUMPRL_THREADS", raw)
        with pytest.raises(ConfigurationError, match="JUMPRL_THREADS") as info:
            thread_cap()
        assert repr(raw) in str(info.value)
