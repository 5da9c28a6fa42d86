import gc
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jumprl import rng
from jumprl.errors import ConfigurationError
from jumprl.rng import path_rng, philox_keys, stream, thread_cap, thread_generator

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
    @given(master=SEEDS, episode=WORDS, path=WORDS)
    @example(master=2**32, episode=0, path=0)
    @example(master=2**128, episode=2**32, path=2**32 + 1)
    @example(master=2**128 - 1, episode=2**64, path=3)
    @example(master=0, episode=0, path=2**64)
    def test_equals_seed_sequence_state(self, master, episode, path):
        state = np.random.SeedSequence(master, spawn_key=(episode, path)).generate_state(
            2, np.uint64)
        assert philox_keys(master, episode, path, 1).tolist() == [state.tolist()]

    @pytest.mark.parametrize("words", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_word_raises_like_seed_sequence(self, words):
        with pytest.raises(ValueError):
            np.random.SeedSequence(words[0], spawn_key=words[1:])
        with pytest.raises(ValueError, match="non-negative"):
            philox_keys(*words, 1)

    def test_concurrent_derivation_matches_reference(self):
        # more workers than keys per episode, and more episodes than the pool
        # cache holds, so threads evict and refill entries under one another
        keys = [(5, episode, path) for episode in range(150) for path in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda k: philox_keys(*k, 1).tolist(),
                                    keys, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        want = [[np.random.SeedSequence(m, spawn_key=(e, p)).generate_state(2, np.uint64)
                 .tolist()] for m, e, p in keys]
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
        keys = philox_keys(master, episode, first, count)
        assert keys.shape == (count, 2) and keys.dtype == np.uint64
        want = [np.random.SeedSequence(master, spawn_key=(episode, first + i))
                .generate_state(2, np.uint64).tolist() for i in range(count)]
        assert keys.tolist() == want

    @pytest.mark.parametrize("episode", [2**64, 2**96 + 7],
                             ids=["one-entry-2^64", "one-entry-above-2^64"])
    @pytest.mark.parametrize("first", [0, 2**32 - 3, 2**64 - 2])
    def test_multi_word_prefix_equals_seed_sequence_state(self, episode, first):
        # every word of a multi-word episode is mixed into every row before
        # any path word
        keys = philox_keys(2**70 + 11, episode, first, 5)
        assert keys.tolist() == reference_keys(2**70 + 11, episode, first, 5)

    def test_concurrent_batches_match_reference(self):
        # more distinct runs than the cache holds, so worker threads evict and
        # refill cached hashes under one another; every episode shares them
        runs = [(7, episode, first, count) for episode in range(6)
                for first in (0, 3, 2**32 - 2) for count in range(1, 8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda r: philox_keys(*r).tolist(),
                                    runs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        want = [[np.random.SeedSequence(m, spawn_key=(e, first + i))
                 .generate_state(2, np.uint64).tolist() for i in range(count)]
                for m, e, first, count in runs]
        assert got == want

    # (master seed, episode, first, count): a desk batch, and runs straddling 2^32 and 2^64
    PINNED = {
        "desk-32": (20240101, 7, 0, 32),
        "straddling-2^32": (2**70 + 11, 20240101, 2**32 - 64, 128),
        "straddling-2^64": (3, 2**33, 2**64 - 5, 10),
    }
    # sha256 of each run's key bytes, recorded with numpy 2.4 on x86-64
    DIGESTS = {
        "desk-32": "b3d0e994ec9b6b0368d3340fb7b02eba6a6d07146f4203a335c95ca551edaed1",
        "straddling-2^32": "b31a3c977b6738a842370aecead4d3e5f3ea5b4402b40ba5604cb74f8960ea22",
        "straddling-2^64": "810ba3ec27a6834d6868e1b76d90495d6daad786414c71d8aae911b88f9b1bef",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_keys_match_recorded_digest(self, case):
        keys = philox_keys(*self.PINNED[case])
        assert keys.dtype == np.uint64 and keys.shape == (self.PINNED[case][3], 2)
        assert hashlib.sha256(keys.tobytes()).hexdigest() == self.DIGESTS[case]


def reference_keys(master, episode, first, count):
    return [np.random.SeedSequence(master, spawn_key=(episode, first + i))
            .generate_state(2, np.uint64).tolist() for i in range(count)]


def block_span(count):
    # episodes per cached block: the largest power of two at most 2048 // count
    return 1 << (2048 // count).bit_length() - 1


class TestKeyBlocks:
    """philox_keys reads one episode's rows out of a cached block of episodes."""

    @pytest.mark.parametrize("count", [3, 12, 2047])
    @pytest.mark.parametrize("episode", ["P-1", "P", 2**32 - 1, 2**32, 2**33 + 5])
    def test_block_rows_equal_seed_sequence_state(self, episode, count):
        # the last episode of a block, the first of the next, and episodes on
        # either side of a 2^32 word boundary, in blocks of 512, 128 and 1
        span = block_span(count)
        assert span == {3: 512, 12: 128, 2047: 1}[count]
        episode = {"P-1": span - 1, "P": span}.get(episode, episode)
        for e in (episode, max(episode - 1, 0), episode + 1):  # a block and its neighbours
            assert philox_keys(11, e, 7, count).tolist() == reference_keys(11, e, 7, count)

    @pytest.mark.parametrize("first", [2**32 - 2, 2**64 - 3])
    @pytest.mark.parametrize("episode", [0, 63, 64, 2**32 + 1])
    def test_first_straddling_word_boundary(self, episode, first):
        # path words of 2 and 3 words in one run, in a block of 64 episodes
        assert philox_keys(2**40 + 1, episode, first, 32).tolist() == reference_keys(
            2**40 + 1, episode, first, 32)

    def test_run_longer_than_a_block(self):
        # 2049 rows exceed a block: derived with no cache, the same way
        assert philox_keys(5, 3, 1, 2049).tolist() == reference_keys(5, 3, 1, 2049)

    @pytest.mark.parametrize("count", [0, 2049])
    def test_uncached_runs_equal_stream_keys(self, count):
        # a run of no rows, or of more than a block holds, is one episode's
        # block of its own, and the cache neither keeps nor looks it up
        before = rng._key_block.cache_info()
        keys = philox_keys(2**70 + 3, 2**32 + 9, 2**32 - 7, count)
        assert keys.shape == (count, 2)
        assert keys.tolist() == [stream(2**70 + 3, 2**32 + 9, 2**32 - 7 + i)
                                 .bit_generator.state["state"]["key"].tolist()
                                 for i in range(count)]
        assert rng._key_block.cache_info() == before

    def test_block_stays_unwritten(self):
        keys = philox_keys(9, 3, 0, 32)
        want = keys.copy()
        keys[...] = 0
        np.testing.assert_array_equal(philox_keys(9, 3, 0, 32), want)
        assert philox_keys(9, 4, 0, 32).tolist() == reference_keys(9, 4, 0, 32)

    def test_concurrent_seeds_evict_blocks(self):
        # twelve seeds against eight cached blocks, interleaved, so worker
        # threads evict and refill blocks under one another
        runs = [(seed, episode) for episode in (0, 1, 63, 64, 65, 127)
                for seed in range(100, 112)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda r: philox_keys(r[0], r[1], 0, 32).tolist(),
                                    runs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [reference_keys(seed, episode, 0, 32) for seed, episode in runs]

    def test_cached_blocks_stay_within_256_kib(self):
        counts = [1, 3, 12, 32, 1000, 2047, 2048]
        for run in range(100):
            philox_keys(run, run, run, counts[run % len(counts)])
        blocks = [a for a in gc.get_referents(rng._key_block) if isinstance(a, np.ndarray)]
        assert 0 < len(blocks) <= 8
        assert all(block.shape[0] * block.shape[1] <= 2048 for block in blocks)
        assert sum(block.nbytes for block in blocks) <= 256 * 1024


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
        key = philox_keys(master, episode, path, 1)[0].tolist()
        got = path_rng(master, episode, path, reuse=used, key=key)
        assert got is used
        for a, b in zip(first_draws(got), first_draws(reference_generator(master, episode, path))):
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
