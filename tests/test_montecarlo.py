"""Monte Carlo sampler: pinned streams, prefix property, convergence."""

import hashlib
import math
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nashroyalty
from nashroyalty import (
    SHARD_SIZE,
    DegeneratePayoffsError,
    EmptySampleError,
    FixedAlphaModel,
    ModelKind,
    OutOfRangeError,
    RiskProfile,
    cdf_at,
    estimate,
    mc_summary,
    random_valid_bounds,
    sample_thetas,
    summarize,
    validate_bounds,
)
from nashroyalty import montecarlo
from nashroyalty.bargaining import ShareModel, as_share_model

GOLDEN = validate_bounds(0.0, 0.2, 0.0, 0.8)

# First four values of pinned streams at seed 42.  These freeze the PRNG
# layout (PCG64 seeded via SeedSequence(seed, spawn_key=(shard,))): any
# change to the generator, sharding, or draw order must show up here.
RAW_UNIFORM_SEED42 = [
    0.9167441575549085,
    0.9109866676343232,
    0.8765925046098457,
    0.3093184096141446,
]
THETA_SEED42 = {
    ModelKind.NBS: [
        0.3278556897113621,
        0.4530499089855129,
        0.41349376395413434,
        0.5211542016537228,
    ],
    ModelKind.CASE1: [
        0.27810362283759715,
        0.4276168028469293,
        0.3722864729058411,
        0.5405860501977838,
    ],
    ModelKind.CASE2: [
        0.2578795621524672,
        0.3975548359130378,
        0.3348012547483377,
        0.7598191074153366,
    ],
}


# SHA-256 of sample_thetas(model, GOLDEN, SHARD_SIZE + 17, seed=42): the
# whole first shard and the start of the second, for every share model.
STREAM_SHA256 = [
    (ModelKind.NBS, "cf04efeab629ecea487db83350621b696f2f48f560f1f9fde9ddade272a2618e"),
    (ModelKind.CASE1, "a7e25a2674e05fe3cba31217ee37a1231b93335629c1564d2f4341b5e9e78e28"),
    (ModelKind.CASE2, "a31e6c411c8fe13cee143e5df4dbbaed295c0e9614d77dd5d4de54924143c375"),
    (
        FixedAlphaModel(0.3),
        "9cb16d2ed183ac89e7e406a7803c087d5bac87d1356101abda613ec054d0c023",
    ),
]


# mc_summary(model, GOLDEN, 10**6, seed=42), field by field: the quantile
# probabilities and values, the histogram mode, the mean and its standard
# error.  Summary code must reproduce every value exactly.
SUMMARY_SEED42 = [
    (
        ModelKind.NBS,
        (0.16340851009053092, 0.25003260802848665, 0.3498797212913507,
         0.45006053657052336, 0.5367074133232267),
        0.24129353233830847,
        0.3500260447419492,
        0.00011899369380256849,
    ),
    (
        ModelKind.CASE1,
        (0.0857086806893321, 0.18042458743241985, 0.2771401975565436,
         0.4155193980050569, 0.5660625516157761),
        0.2014925373134328,
        0.3000424526099771,
        0.00014987275145211993,
    ),
    (
        ModelKind.CASE2,
        (0.024444368876321065, 0.1111630341408322, 0.2000601373494946,
         0.3335178828156769, 0.7146489455933968),
        0.19154228855721395,
        0.25501152832213875,
        0.00020602252705525262,
    ),
    (
        FixedAlphaModel(0.3),
        (0.1180959868239335, 0.18966232925047022, 0.2500412153903086,
         0.31037540598768554, 0.38194161749239286),
        0.2164179104477612,
        0.2500240961388753,
        8.015695201250676e-05,
    ),
]

# A box with nonzero lower bounds, so the pins below cover draws of
# low + range * u with low > 0, which GOLDEN (a = c = 0) does not.
OFFSET_BOX = validate_bounds(0.1, 0.3, 0.2, 0.6)

# SHA-256 of sample_thetas(model, OFFSET_BOX, SHARD_SIZE + 17, seed=42).
OFFSET_STREAM_SHA256 = [
    (ModelKind.NBS, "6d539fafce283437e480315153e35fe3ad7d44c0d0cb6bd05c38c1a4dc243ed8"),
    (ModelKind.CASE1, "64af97b207965eab1415284b25faeff16893b7241c52b74526dedf3d75eb0911"),
    (ModelKind.CASE2, "d42aff4ae16b376e09a5fa87b7c04a9f8d698daa83f2a3a1aad830e0270093cb"),
    (
        FixedAlphaModel(0.3),
        "2294c55ff7c7c11023730fddce46e0c94ab54b837f5e944e93cea326223d46ee",
    ),
]

# mc_summary(model, OFFSET_BOX, 10**6, seed=42), laid out as SUMMARY_SEED42.
OFFSET_SUMMARY_SEED42 = [
    (
        ModelKind.NBS,
        (0.2948504548691407, 0.35005041507457374, 0.4000192154818746,
         0.4500406036508949, 0.5051864450816761),
        0.3606965174129353,
        0.4000183156795407,
        6.451419070033207e-05,
    ),
    (
        ModelKind.CASE1,
        (0.23086526574217425, 0.30319625591696003, 0.36135302880769304,
         0.4258046711464239, 0.5077816493324552),
        0.33582089552238803,
        0.3650297851878361,
        8.344091452473745e-05,
    ),
    (
        ModelKind.CASE2,
        (0.19362358234151872, 0.26980261014821294, 0.33337285524071836,
         0.40357927803698634, 0.5104109009332516),
        0.3308457711442786,
        0.3399657665544388,
        9.453731085780828e-05,
    ),
    (
        FixedAlphaModel(0.3),
        (0.23115644066745716, 0.2817557693055863, 0.3200315333594165,
         0.3583052759788241, 0.40893754301959634),
        0.31592039800995025,
        0.3200194587014302,
        5.317533543824359e-05,
    ),
]

PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)
EDGES = np.linspace(0.0, 1.0, 202)


def numpy_summary_values(x):
    """The quantiles and histogram mode by np.quantile and np.histogram."""
    quantiles = tuple((p, float(np.quantile(x, p))) for p in PROBS)
    counts, edges = np.histogram(x, bins=201, range=(0.0, 1.0))
    k = int(np.argmax(counts))
    return quantiles, float((edges[k] + edges[k + 1]) / 2.0)


# Share samples with heavy ties, exact 0s and 1s and values on bin edges.
share_values = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0, 0.5, 0.25]),
    st.sampled_from(EDGES.tolist()),
)
share_samples = st.one_of(
    st.lists(share_values, min_size=1, max_size=300),
    st.lists(st.sampled_from([0.0, 0.2, 1.0]), min_size=1, max_size=300),
    st.lists(st.sampled_from(EDGES[95:110].tolist()), min_size=1, max_size=300),
)


BLOCK = montecarlo._BLOCK


class StreamCursor:
    """A shard generator that knows its position in the shard's stream.

    Records the size of every ``random`` fill in ``sizes`` and replaces
    the draws at the stream positions in ``zeroed`` by 0, which the
    sampler scales to the lower bound.  Positions count modulo PCG64's
    period 2**128, as ``advance`` does.
    """

    PERIOD = 1 << 128

    def __init__(self, rng, sizes, zeroed):
        self.rng, self.sizes, self.zeroed = rng, sizes, zeroed
        self.position = 0
        self.bit_generator = self  # advance() moves the real generator too

    def advance(self, delta):
        self.rng.bit_generator.advance(delta)
        self.position = (self.position + delta) % self.PERIOD

    def random(self, *, out):
        self.rng.random(out=out)
        self.sizes.append(out.size)
        for p in self.zeroed:
            if 0 <= p - self.position < out.size:
                out[p - self.position] = 0.0
        self.position = (self.position + out.size) % self.PERIOD


def track_streams(monkeypatch, sizes, zeroed=()):
    """Make every shard generator a :class:`StreamCursor`."""
    shard_rng = montecarlo._shard_rng
    monkeypatch.setattr(
        montecarlo,
        "_shard_rng",
        lambda seed, index: StreamCursor(shard_rng(seed, index), sizes, zeroed),
    )


class TestPinnedStreams:
    def test_raw_generator_layout(self):
        sequence = np.random.SeedSequence(entropy=42, spawn_key=(0,))
        rng = np.random.Generator(np.random.PCG64(sequence))
        assert rng.uniform(0.0, 1.0, 4).tolist() == RAW_UNIFORM_SEED42

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_share_streams(self, model):
        assert sample_thetas(model, GOLDEN, 4, seed=42).tolist() == THETA_SEED42[model]

    @pytest.mark.parametrize("model, digest", STREAM_SHA256, ids=str)
    def test_two_shard_stream_hashes(self, model, digest):
        draws = sample_thetas(model, GOLDEN, SHARD_SIZE + 17, seed=42)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest

    def test_same_seed_reproduces_exactly(self):
        first = sample_thetas(ModelKind.CASE2, GOLDEN, 5000, seed=9)
        second = sample_thetas(ModelKind.CASE2, GOLDEN, 5000, seed=9)
        assert np.array_equal(first, second)

    def test_distinct_seeds_differ(self):
        first = sample_thetas(ModelKind.CASE2, GOLDEN, 1000, seed=1)
        second = sample_thetas(ModelKind.CASE2, GOLDEN, 1000, seed=2)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("model", [*ModelKind, FixedAlphaModel(0.3)], ids=str)
    def test_short_samples_are_prefixes_of_long_ones(self, model):
        # Crossing the shard boundary must not disturb earlier draws.
        long = sample_thetas(model, GOLDEN, SHARD_SIZE + 1000, seed=3)
        for n in (1, 4, 1000, SHARD_SIZE, SHARD_SIZE + 1):
            short = sample_thetas(model, GOLDEN, n, seed=3)
            assert np.array_equal(short, long[:n])

    def test_partial_last_shard_is_a_prefix(self):
        # 10**6 ends inside the fourth shard, so both samples skip part of
        # its blocks, by different amounts.
        long = sample_thetas(ModelKind.CASE1, GOLDEN, 10**6 + 17, seed=3)
        short = sample_thetas(ModelKind.CASE1, GOLDEN, 10**6, seed=3)
        assert np.array_equal(short, long[: 10**6])

    @pytest.mark.parametrize(
        "n", [1, 17, 20_000, SHARD_SIZE - 1, SHARD_SIZE + 17, 3 * SHARD_SIZE + 5]
    )
    def test_short_samples_generate_only_the_draws_they_return(self, monkeypatch, n):
        sizes = []
        track_streams(monkeypatch, sizes)
        sample_thetas(ModelKind.CASE1, GOLDEN, n, seed=4)
        assert sum(sizes) == 2 * n

    # One block, and the third of four blocks of one shard.
    @pytest.mark.parametrize("n, k", [(10, 5), (3 * BLOCK + 10, 2 * BLOCK + 5)])
    def test_undefined_pair_is_redrawn_from_its_shard_stream(self, monkeypatch, n, k):
        # GOLDEN has a = c = 0.  Zero the d1 and d2 draws of pair k of shard
        # 0, so the proportional share there is 0/0 and must be redrawn.
        seed = 3
        track_streams(monkeypatch, [], zeroed=(k, SHARD_SIZE + k))
        forced = sample_thetas(ModelKind.CASE2, GOLDEN, n, seed=seed)
        monkeypatch.undo()
        expected = sample_thetas(ModelKind.CASE2, GOLDEN, n, seed=seed)
        # The replacement pair is the next d1 draw and the next d2 draw of
        # the same stream, after both full blocks.
        rng = montecarlo._shard_rng(seed, 0)
        rng.uniform(0.0, 0.2, SHARD_SIZE)
        rng.uniform(0.0, 0.8, SHARD_SIZE)
        x, y = rng.uniform(0.0, 0.2, 1), rng.uniform(0.0, 0.8, 1)
        expected[k] = (x / (x + y))[0]
        assert np.array_equal(forced, expected)


# Two shards, four with a short last one, and the benchmark's sample size.
PARALLEL_SIZES = (SHARD_SIZE + 17, 3 * SHARD_SIZE + 5, 10**6)


class TestShardOrder:
    """Shards are drawn in index order on the calling thread, one cursor
    each, along the pinned streams."""

    @pytest.mark.parametrize("n", PARALLEL_SIZES)
    @pytest.mark.parametrize("model, digest", OFFSET_STREAM_SHA256, ids=str)
    def test_shards_are_drawn_in_order_on_the_calling_thread(
        self, monkeypatch, model, digest, n
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the sampler constructed a thread")

        monkeypatch.setattr(threading, "Thread", refuse)
        shard_rng = montecarlo._shard_rng
        calls = []

        def recorded(seed, index):
            calls.append((threading.current_thread(), index))
            return shard_rng(seed, index)

        monkeypatch.setattr(montecarlo, "_shard_rng", recorded)
        head = sample_thetas(model, OFFSET_BOX, n, seed=42)[: SHARD_SIZE + 17]
        assert hashlib.sha256(head.tobytes()).hexdigest() == digest
        caller = threading.current_thread()
        assert calls == [(caller, index) for index in range(-(-n // SHARD_SIZE))]

    @pytest.mark.parametrize("n", PARALLEL_SIZES)
    def test_redrawn_pairs_are_redrawn_in_every_shard(self, monkeypatch, n):
        # Pairs 5 and BLOCK + 7 of every shard are 0/0 and redrawn.
        pairs = (5, BLOCK + 7)
        zeroed = [*pairs, *(SHARD_SIZE + k for k in pairs)]  # d1, then d2
        track_streams(monkeypatch, [], zeroed)
        forced = sample_thetas(ModelKind.CASE2, GOLDEN, n, seed=12)
        monkeypatch.undo()
        plain = sample_thetas(ModelKind.CASE2, GOLDEN, n, seed=12)
        redrawn = [s + k for s in range(0, n, SHARD_SIZE) for k in pairs if s + k < n]
        assert np.flatnonzero(forced != plain).tolist() == redrawn
        assert np.isfinite(forced).all()

    @pytest.mark.parametrize("failing", [0, 1, 3], ids=["first", "second", "last"])
    def test_a_shard_error_reaches_the_caller_and_stops_the_sample(
        self, monkeypatch, failing
    ):
        shard_rng = montecarlo._shard_rng
        calls = []

        def broken(seed, index):
            calls.append(index)
            if index == failing:
                raise RuntimeError(f"shard {index} failed")
            return shard_rng(seed, index)

        monkeypatch.setattr(montecarlo, "_shard_rng", broken)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"shard {failing} failed"):
            sample_thetas(ModelKind.CASE1, GOLDEN, 3 * SHARD_SIZE + 5, seed=1)
        assert calls == list(range(failing + 1))
        assert threading.active_count() == before

    def test_one_shard_starts_no_thread_and_one_generator(self, monkeypatch):
        # verify's default sample: one shard, and one block of it.
        def refuse(*args, **kwargs):
            raise AssertionError("a one-shard sample constructed a thread")

        monkeypatch.setattr(threading, "Thread", refuse)
        calls = []
        shard_rng = montecarlo._shard_rng
        monkeypatch.setattr(
            montecarlo, "_shard_rng", lambda s, i: calls.append(i) or shard_rng(s, i)
        )
        sample_thetas(ModelKind.CASE1, GOLDEN, 20_000, seed=1)
        assert calls == [0]
        sample_thetas(ModelKind.CASE1, GOLDEN, SHARD_SIZE, seed=1)
        assert calls == [0, 0]  # one cursor for a shard of many blocks too


class Holed(ShareModel):
    """A share model left undefined (NaN) wherever d1 lies in the lower half
    of its interval, so about half of each round of pairs is redrawn."""

    def __init__(self, model, bounds):
        self.inner = as_share_model(model)
        self.cut = 0.5 * (bounds.a + bounds.b)

    def theta(self, x, y):
        return np.where(x < self.cut, np.nan, self.inner.theta(x, y))

    def support(self, bounds):
        return self.inner.support(bounds)


class Undefined(ShareModel):
    """A share model undefined (NaN) at every payoff pair whose support does
    not raise, so that the sampler reaches its redraw limit."""

    @staticmethod
    def theta(x, y):
        return x * math.nan

    def support(self, bounds):
        return (0.0, 1.0)


class TestRedrawLimit:
    """Redraws stop after a fixed number of rounds with a named error."""

    @pytest.mark.parametrize("sampler", [sample_thetas, mc_summary])
    def test_a_share_undefined_everywhere_raises(self, sampler):
        message = f"undefined at {SHARD_SIZE} of shard 0's {SHARD_SIZE} payoff pairs"
        with pytest.raises(DegeneratePayoffsError, match=message):
            sampler(Undefined(), OFFSET_BOX, SHARD_SIZE + 17, seed=1)


# The one-block sample reuses its payoffs across these models.
ONE_BLOCK_MODELS = [*ModelKind, FixedAlphaModel(0.3)]


def forget_payoffs(monkeypatch):
    """Empty the payoffs the sampler keeps, for the rest of this test."""
    monkeypatch.setattr(montecarlo, "_last", None)


class TestKeptPayoffs:
    """A one-block sample keeps its payoffs for the next call with the same
    bounds, n and seed, which maps them through its own share: the same
    bits as drawing them again, with no generator."""

    @pytest.mark.parametrize("n", [1, 20_000, BLOCK])
    @pytest.mark.parametrize("model", ONE_BLOCK_MODELS, ids=str)
    def test_a_repeated_call_equals_a_cold_call(self, monkeypatch, model, n):
        forget_payoffs(monkeypatch)
        cold = sample_thetas(model, OFFSET_BOX, n, seed=21)
        forget_payoffs(monkeypatch)
        sample_thetas(ModelKind.NBS, OFFSET_BOX, n, seed=21)  # another model draws
        kept = montecarlo._last
        for _ in range(2):
            hit = sample_thetas(model, OFFSET_BOX, n, seed=21)
            assert montecarlo._last is kept
            assert hit.tobytes() == cold.tobytes()
        # Both equal the prefix of a sample drawn block by block.
        long = sample_thetas(model, OFFSET_BOX, BLOCK + 1, seed=21)
        assert cold.tobytes() == long[:n].tobytes()

    @pytest.mark.parametrize("n, k", [(10, 5), (BLOCK, BLOCK - 1)])
    def test_a_hit_redraws_an_undefined_pair_from_its_shard_stream(
        self, monkeypatch, n, k
    ):
        # GOLDEN has a = c = 0: zeroing pair k's draws makes its share 0/0.
        forget_payoffs(monkeypatch)
        shard_rng = montecarlo._shard_rng
        track_streams(monkeypatch, [], zeroed=(k, SHARD_SIZE + k))
        cold = sample_thetas(ModelKind.CASE2, GOLDEN, n, seed=3)
        _, d1, d2 = montecarlo._last
        assert d1[k] == d2[k] == 0.0  # kept as drawn, so 0/0 again on a hit
        hit = sample_thetas(ModelKind.CASE2, GOLDEN, n, seed=3)
        assert montecarlo._last[1] is d1
        assert hit.tobytes() == cold.tobytes()
        # The plain generator does not read what the zeroing one kept.
        monkeypatch.setattr(montecarlo, "_shard_rng", shard_rng)
        plain = sample_thetas(ModelKind.CASE2, GOLDEN, n, seed=3)
        assert np.flatnonzero(hit != plain).tolist() == [k]

    def test_a_hit_constructs_no_generator(self, monkeypatch):
        forget_payoffs(monkeypatch)
        calls = []
        shard_rng = montecarlo._shard_rng
        monkeypatch.setattr(
            montecarlo, "_shard_rng", lambda s, i: calls.append(i) or shard_rng(s, i)
        )
        for model in ONE_BLOCK_MODELS:
            sample_thetas(model, OFFSET_BOX, 20_000, seed=1)
        assert calls == [0]
        # Other bounds, another n or another seed draw again.
        for bounds, n, seed in [(GOLDEN, 20_000, 1), (GOLDEN, 19_999, 1),
                                (GOLDEN, 19_999, 2)]:
            sample_thetas(ModelKind.NBS, bounds, n, seed=seed)
        assert calls == [0] * 4

    def test_writing_a_sample_leaves_the_next_one_unchanged(self, monkeypatch):
        forget_payoffs(monkeypatch)
        expected = sample_thetas(ModelKind.CASE1, OFFSET_BOX, 20_000, seed=4)
        sample = sample_thetas(ModelKind.CASE1, OFFSET_BOX, 20_000, seed=4)
        sample[:] = 0.5
        # mc_summary takes its variance in place, in its own sample.
        summary = mc_summary(ModelKind.CASE1, OFFSET_BOX, 20_000, seed=4)
        assert summary == summarize(expected, seed=4)
        again = sample_thetas(ModelKind.CASE1, OFFSET_BOX, 20_000, seed=4)
        assert again.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [BLOCK, BLOCK + 1, SHARD_SIZE + 17])
    def test_only_a_one_block_sample_reads_the_kept_payoffs(self, monkeypatch, n):
        # A decoy entry keyed on the length of the sample's last shard, which
        # is the call's own n for a one-shard sample and 17 for a two-shard
        # one whose last shard is one block: nbs maps its zeros to 1/2.
        box = OFFSET_BOX
        m = (n - 1) % SHARD_SIZE + 1
        key = (box.a, box.b, box.c, box.d, m, 6, montecarlo._shard_rng)
        decoy = (key, np.zeros(m), np.zeros(m))
        monkeypatch.setattr(montecarlo, "_last", decoy)
        x = sample_thetas(ModelKind.NBS, box, n, seed=6)
        assert montecarlo._last is decoy  # neither dropped nor replaced
        if n <= BLOCK:
            assert np.all(x == 0.5)
        else:
            expected, _ = uniform_reference(as_share_model("nbs"), box, n, seed=6)
            assert x.tobytes() == expected.tobytes()

    def test_the_kept_payoffs_are_read_only_and_at_most_512_kib(self, monkeypatch):
        forget_payoffs(monkeypatch)
        sample_thetas(ModelKind.CASE2, OFFSET_BOX, BLOCK, seed=8)
        _, d1, d2 = montecarlo._last
        assert d1.nbytes + d2.nbytes == 512 * 1024
        for kept in (d1, d2):
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0.0

    def test_threads_switching_keys_get_the_cold_bits(self, monkeypatch):
        keys = [(OFFSET_BOX, 20_000, 31), (GOLDEN, 20_000, 31), (OFFSET_BOX, 777, 32)]
        cold = {}
        for model in ONE_BLOCK_MODELS:
            for key in keys:
                forget_payoffs(monkeypatch)
                bounds, n, seed = key
                cold[str(model), key] = sample_thetas(model, bounds, n, seed).tobytes()
        wrong, done = [], []

        def work(offset):
            # Runs of one key over the four models, so hits and misses mix.
            for i in range(32 * len(ONE_BLOCK_MODELS) * len(keys)):
                key = keys[(i // len(ONE_BLOCK_MODELS) + offset) % len(keys)]
                model = ONE_BLOCK_MODELS[i % len(ONE_BLOCK_MODELS)]
                bounds, n, seed = key
                x = sample_thetas(model, bounds, n, seed)
                if x.tobytes() != cold[str(model), key]:
                    wrong.append((offset, i))
            done.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1]
        assert wrong == []


def uniform_reference(share, bounds, n, seed):
    """sample_thetas by its documented stream layout, from Generator.uniform.

    Shard i draws all SHARD_SIZE of its d1 values, then all SHARD_SIZE of
    its d2 values, and keeps the first pairs; undefined pairs are redrawn
    from the same stream, all d1 values of a round and then its d2 values.
    Returns the sample and the number of redraw rounds.
    """
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    parts, rounds = [], 0
    for index, start in enumerate(range(0, n, SHARD_SIZE)):
        m = min(SHARD_SIZE, n - start)
        rng = montecarlo._shard_rng(seed, index)
        d1 = rng.uniform(a, b, SHARD_SIZE)[:m]
        d2 = rng.uniform(c, d, SHARD_SIZE)[:m]
        theta = np.clip(share.theta(d1, d2), 0.0, 1.0)
        while np.isnan(theta).any():
            stuck = np.isnan(theta)
            k = int(stuck.sum())
            x, y = rng.uniform(a, b, k), rng.uniform(c, d, k)
            theta[stuck] = np.clip(share.theta(x, y), 0.0, 1.0)
            rounds += 1
        parts.append(theta)
    return np.concatenate(parts), rounds


class TestUniformReference:
    """One cursor, jumping between the halves of each shard, draws what
    Generator.uniform draws along the documented stream layout."""

    @pytest.mark.parametrize(
        "n", [1, 17, 20_000, BLOCK, BLOCK + 1, SHARD_SIZE + 1, 10**6]
    )
    @pytest.mark.parametrize("model", [*ModelKind, FixedAlphaModel(0.3)], ids=str)
    def test_sample_equals_the_uniform_reference(self, model, n):
        share = Holed(model, OFFSET_BOX)
        expected, rounds = uniform_reference(share, OFFSET_BOX, n, seed=17)
        assert rounds > 0 or n == 1
        x = sample_thetas(share, OFFSET_BOX, n, seed=17)
        assert x.tobytes() == expected.tobytes()


# Pairs (lo, hi) for the uniform-fill guard: random ones, equal ends, and
# widths of a few subnormal steps.
FILL_PAIRS = [
    *(tuple(sorted(pair)) for pair in np.random.default_rng(7).random((200, 2)).tolist()),
    *((v, v) for v in (0.0, 5e-324, 1e-310, 0.25, 0.5, 1.0)),
    *((lo, lo + k * 5e-324) for lo in (0.0, 5e-324, 1e-310) for k in (1, 2, 3, 1000)),
    (0.0, 2.2250738585072014e-308),
    (0.0, 1.0),
    (0.5, 0.5 + 2.0**-53),
]


class TestUniformFill:
    def test_uniform_equals_the_in_place_fill_of_draw_shard(self):
        for i, (lo, hi) in enumerate(FILL_PAIRS):
            reference = np.random.Generator(np.random.PCG64(i))
            rng = np.random.Generator(np.random.PCG64(i))
            expected = reference.uniform(lo, hi, 999)
            out = np.empty(999)
            montecarlo._fill_uniform(rng, out, lo, hi)
            message = (
                f"Generator.uniform({lo!r}, {hi!r}) no longer equals random(out=...) "
                "scaled in place; montecarlo._draw_shard's streams rely on it"
            )
            assert out.tobytes() == expected.tobytes(), message
            assert rng.bit_generator.state == reference.bit_generator.state, message


class TestSampleValidity:
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_samples_stay_inside_the_support(self, model):
        lo, hi = as_share_model(model).support(GOLDEN)
        samples = sample_thetas(model, GOLDEN, 20_000, seed=4)
        assert samples.min() >= lo - 1e-12
        assert samples.max() <= hi + 1e-12

    def test_proportional_model_with_zero_lower_bounds_is_finite(self):
        samples = sample_thetas(ModelKind.CASE2, GOLDEN, 50_000, seed=5)
        assert np.isfinite(samples).all()

    def test_origin_rectangle_raises_for_proportional_model(self):
        origin = validate_bounds(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegeneratePayoffsError):
            sample_thetas(ModelKind.CASE2, origin, 10, seed=0)

    def test_origin_rectangle_is_constant_for_symmetric_model(self):
        origin = validate_bounds(0.0, 0.0, 0.0, 0.0)
        samples = sample_thetas(ModelKind.NBS, origin, 10, seed=0)
        assert np.all(samples == 0.5)

    @pytest.mark.parametrize("n", [2.7, 0.5, math.inf, math.nan])
    def test_non_integral_sizes_rejected(self, n):
        with pytest.raises(OutOfRangeError, match="n must be an integer"):
            sample_thetas(ModelKind.NBS, GOLDEN, n, seed=0)

    def test_integral_float_size_accepted(self):
        by_float = sample_thetas(ModelKind.NBS, GOLDEN, 100.0, seed=0)
        by_int = sample_thetas(ModelKind.NBS, GOLDEN, 100, seed=0)
        assert np.array_equal(by_float, by_int)

    def test_point_mass_bounds_give_a_constant_sample(self):
        bounds = validate_bounds(0.3, 0.3, 0.1, 0.1)
        samples = sample_thetas(ModelKind.CASE2, bounds, 100, seed=6)
        assert np.all(samples == samples[0])

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonpositive_sample_size_rejected(self, n):
        with pytest.raises(OutOfRangeError):
            sample_thetas(ModelKind.NBS, GOLDEN, n, seed=0)

    # Counts of more doubles than one array can hold; none is allocated.
    @pytest.mark.parametrize("sampler", [sample_thetas, mc_summary])
    @pytest.mark.parametrize(
        "n", [sys.maxsize // 8 + 1, 2**62, 10**400], ids=["max+1", "2**62", "10**400"]
    )
    def test_sizes_no_array_can_hold_rejected(self, sampler, n):
        with pytest.raises(OutOfRangeError, match="n must be at most"):
            sampler(ModelKind.NBS, GOLDEN, n, seed=0)

    @pytest.mark.parametrize("sampler", [sample_thetas, mc_summary])
    @pytest.mark.parametrize("seed", [None, -1, 1.5, "7"])
    def test_seeds_that_are_not_counts_rejected(self, sampler, seed):
        # None would draw fresh OS entropy, so two calls would differ.
        with pytest.raises(OutOfRangeError, match="seed must be"):
            sampler(ModelKind.NBS, GOLDEN, 10, seed)

    def test_summary_records_the_checked_seed(self):
        summary = mc_summary(ModelKind.NBS, GOLDEN, 10, np.int64(11))
        assert type(summary.seed) is int
        assert summary == mc_summary(ModelKind.NBS, GOLDEN, 10, 11.0)

    def test_fixed_alpha_model_sampling(self):
        samples = sample_thetas(FixedAlphaModel(0.0), GOLDEN, 10_000, seed=7)
        # alpha = 0 means theta = d1 ~ U[0, 0.2].
        assert samples.min() >= 0.0
        assert samples.max() <= 0.2
        assert samples.mean() == pytest.approx(0.1, abs=0.005)


class TestSummarize:
    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySampleError):
            summarize(np.array([]))

    def test_single_observation_has_zero_standard_error(self):
        summary = summarize(np.array([0.4]))
        assert summary.n == 1
        assert summary.mean == 0.4
        assert summary.std_error_of_mean == 0.0

    def test_constant_sample_has_zero_standard_error(self):
        summary = summarize(np.full(50, 0.75))
        assert summary.std_error_of_mean == 0.0

    def test_quantiles_interpolate_linearly(self):
        summary = summarize(np.array([0.0, 1.0]))
        assert summary.quantiles == tuple(
            (p, p) for p in (0.05, 0.25, 0.5, 0.75, 0.95)
        )

    def test_histogram_mode_takes_the_lowest_tied_bin(self):
        # One draw in each of two bins of width 1/201: the lower bin wins.
        summary = summarize(np.array([0.9, 0.1]))
        assert abs(summary.histogram_mode - 0.1) <= 0.5 / 201

    @settings(deadline=None, max_examples=300)
    @given(share_samples)
    @example([0.4])
    @example([1.0, 0.0])
    def test_matches_numpy_quantile_and_histogram(self, values):
        x = np.array(values)
        summary = summarize(x)
        assert (summary.quantiles, summary.histogram_mode) == numpy_summary_values(x)

    def test_matches_numpy_across_a_shard_boundary(self):
        rng = np.random.default_rng(19)
        x = rng.uniform(0.2, 0.6, SHARD_SIZE + 17)
        x[::7] = EDGES[rng.integers(0, 202, x[::7].size)]  # ties on bin edges
        summary = summarize(x)
        assert (summary.quantiles, summary.histogram_mode) == numpy_summary_values(x)

    def test_never_sorts_the_whole_sample(self, monkeypatch):
        samples = sample_thetas(ModelKind.CASE1, GOLDEN, 100_000, seed=8)
        expected = numpy_summary_values(samples)

        def refuse(*args, **kwargs):
            raise AssertionError("summarize must not sort the whole sample")

        for name in ("quantile", "percentile", "sort", "partition", "median"):
            monkeypatch.setattr(np, name, refuse)
        summary = summarize(samples)
        monkeypatch.undo()
        assert (summary.quantiles, summary.histogram_mode) == expected

    @pytest.mark.parametrize(
        "values",
        [[math.nan, 0.3], [2.0, 3.0], [-0.5, 0.5], [math.inf, 0.2], [0.2, -math.inf]],
        ids=str,
    )
    def test_values_outside_the_unit_interval_rejected(self, values):
        with pytest.raises(OutOfRangeError, match=r"\[0, 1\]"):
            summarize(np.array(values))

    @pytest.mark.parametrize(
        "model, quantiles, mode, mean, se",
        SUMMARY_SEED42,
        ids=[str(row[0]) for row in SUMMARY_SEED42],
    )
    def test_full_size_summary_is_pinned(self, model, quantiles, mode, mean, se):
        summary = mc_summary(model, GOLDEN, 1_000_000, seed=42)
        assert summary.quantiles == tuple(zip(PROBS, quantiles))
        assert summary.histogram_mode == mode
        assert summary.mean == mean
        assert summary.std_error_of_mean == se
        assert (summary.n, summary.seed) == (1_000_000, 42)

    def test_mc_summary_records_provenance(self):
        summary = mc_summary(ModelKind.NBS, GOLDEN, 1000, seed=11)
        assert summary.seed == 11
        assert summary.n == 1000


class TestOffsetBoxPins:
    @pytest.mark.parametrize("model, digest", OFFSET_STREAM_SHA256, ids=str)
    def test_two_shard_stream_hashes(self, model, digest):
        draws = sample_thetas(model, OFFSET_BOX, SHARD_SIZE + 17, seed=42)
        assert hashlib.sha256(draws.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "model, quantiles, mode, mean, se",
        OFFSET_SUMMARY_SEED42,
        ids=[str(row[0]) for row in OFFSET_SUMMARY_SEED42],
    )
    def test_full_size_summary_is_pinned(self, model, quantiles, mode, mean, se):
        summary = mc_summary(model, OFFSET_BOX, 1_000_000, seed=42)
        assert summary.quantiles == tuple(zip(PROBS, quantiles))
        assert summary.histogram_mode == mode
        assert summary.mean == mean
        assert summary.std_error_of_mean == se
        assert (summary.n, summary.seed) == (1_000_000, 42)


# Longer than one block of the summary's scan and not a multiple of it.
BLOCKED_N = 3 * montecarlo._BLOCK + 1001
THIN_BOX = validate_bounds(0.3, 0.3 + 1e-7, 0.2, 0.2 + 1e-7)


def assert_matches_numpy(x):
    """summarize(x) equals numpy's quantiles, histogram, mean and std."""
    summary = summarize(x)
    assert (summary.quantiles, summary.histogram_mode) == numpy_summary_values(x)
    assert summary.mean == float(x.mean())
    assert summary.std_error_of_mean == float(x.std(ddof=1) / math.sqrt(x.size))


def edge_values():
    """Every histogram edge and its neighbours one ulp away, inside [0, 1]."""
    values = np.concatenate(
        [EDGES, np.nextafter(EDGES, -np.inf), np.nextafter(EDGES, np.inf)]
    )
    return values[(values >= 0.0) & (values <= 1.0)]


class TestBlockedSummary:
    """summarize over several blocks, bit for bit against numpy."""

    def test_support_inside_one_histogram_bin(self):
        rng = np.random.default_rng(23)
        assert_matches_numpy(rng.uniform(0.3, 0.3 + 1e-7, BLOCKED_N))

    @pytest.mark.parametrize("low", [0.0, 1e-310, 0.25], ids=str)
    def test_range_one_ulp_wide(self, low):
        # From 0 and from 1e-310 the range is 5e-324 wide.
        rng = np.random.default_rng(29)
        pair = np.array([low, np.nextafter(low, 1.0)])
        assert_matches_numpy(pair[rng.integers(0, 2, BLOCKED_N)])

    @pytest.mark.parametrize("model", [*ModelKind, FixedAlphaModel(0.3)], ids=str)
    def test_point_mass_box_gives_a_constant_summary(self, model):
        bounds = validate_bounds(0.3, 0.3, 0.1, 0.1)
        x = sample_thetas(model, bounds, BLOCKED_N, seed=37)
        summary = mc_summary(model, bounds, BLOCKED_N, seed=37)
        assert (summary.quantiles, summary.histogram_mode) == numpy_summary_values(x)
        assert summary.mean == float(x.mean())
        assert summary.std_error_of_mean == float(x.std(ddof=1) / math.sqrt(x.size))
        assert {value for _, value in summary.quantiles} == {float(x[0])}

    def test_heavy_ties_at_zero_and_one(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(0.0, 1.0, BLOCKED_N)
        x[rng.random(BLOCKED_N) < 0.4] = 0.0
        x[rng.random(BLOCKED_N) < 0.3] = 1.0
        assert_matches_numpy(x)

    def test_all_ties_at_one(self):
        assert_matches_numpy(np.ones(BLOCKED_N))

    def test_values_on_every_edge_and_one_ulp_either_side(self):
        rng = np.random.default_rng(43)
        edges = edge_values()
        x = rng.uniform(0.0, 1.0, BLOCKED_N)
        x[::2] = edges[rng.integers(0, edges.size, x[::2].size)]
        assert_matches_numpy(x)

    def test_edges_alone_over_a_narrow_range(self):
        # Only edges and their neighbours, around a few bins: the fullest
        # bin is decided by the edge rule alone.
        rng = np.random.default_rng(47)
        edges = edge_values()[300:320]
        assert_matches_numpy(edges[rng.integers(0, edges.size, BLOCKED_N)])

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("bounds", [GOLDEN, OFFSET_BOX, THIN_BOX], ids=str)
    def test_sampled_shares(self, model, bounds):
        assert_matches_numpy(sample_thetas(model, bounds, BLOCKED_N, seed=53))


class TestSummarizeInput:
    def test_leaves_the_input_unchanged(self):
        x = sample_thetas(ModelKind.CASE1, GOLDEN, BLOCKED_N, seed=59)
        before = x.tobytes()
        summarize(x)
        assert x.tobytes() == before

    def test_accepts_a_read_only_array(self):
        x = sample_thetas(ModelKind.NBS, GOLDEN, BLOCKED_N, seed=61)
        expected = summarize(x.copy())
        x.setflags(write=False)
        assert summarize(x) == expected

    def test_accepts_a_strided_view(self):
        x = sample_thetas(ModelKind.CASE2, GOLDEN, 3 * BLOCKED_N, seed=67)
        view = x[1::3]
        before = x.tobytes()
        assert summarize(view) == summarize(view.copy())
        assert_matches_numpy(view)
        assert x.tobytes() == before

    def test_accepts_a_two_dimensional_array(self):
        x = sample_thetas(ModelKind.CASE1, GOLDEN, 2 * 3 * 7001, seed=71)
        assert summarize(x.reshape(6, 7001)) == summarize(x)

    @pytest.mark.parametrize(
        "values, bad",
        [
            ([math.nan, 0.3], 1),
            ([math.inf, 0.2], 1),
            ([0.2, -math.inf], 1),
            ([-0.5, 0.5], 1),
            ([0.5, 1.5], 1),
            ([-5e-324, 0.5], 1),
            ([np.nextafter(1.0, 2.0), 0.5], 1),
            ([2.0, 3.0], 2),
            ([math.nan, -1.0, 0.4, 1.0, 0.0], 2),
        ],
        ids=str,
    )
    def test_out_of_range_message_counts_the_bad_values(self, values, bad):
        n = len(values)
        with pytest.raises(OutOfRangeError, match=rf"; {bad} of {n} values do not$"):
            summarize(np.array(values))

    def test_out_of_range_in_a_late_block_rejected(self):
        x = sample_thetas(ModelKind.NBS, GOLDEN, BLOCKED_N, seed=73)
        x[-1] = math.nan
        with pytest.raises(OutOfRangeError, match=rf"1 of {BLOCKED_N} values do not"):
            summarize(x)


class TestSummarizeMemory:
    """summarize's traced peak stays near one sample-sized temporary."""

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("bounds", [GOLDEN, THIN_BOX], ids=["golden", "thin"])
    def test_peak_is_at_most_the_sample_plus_one_mib(self, model, bounds):
        x = sample_thetas(model, bounds, 1_000_000, seed=79)
        tracemalloc.start()
        try:
            summarize(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= x.nbytes + 2**20


class TestMcSummaryInPlace:
    """mc_summary takes its variance in place and its shares in blocks: the
    same summary as summarize, bit for bit, with a smaller footprint."""

    @pytest.mark.parametrize("model", [*ModelKind, FixedAlphaModel(0.3)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 17, SHARD_SIZE + 17])
    def test_equals_summarize_of_the_same_sample(self, model, n):
        expected = summarize(sample_thetas(model, GOLDEN, n, seed=5), seed=5)
        assert mc_summary(model, GOLDEN, n, seed=5) == expected

    @pytest.mark.parametrize("n", PARALLEL_SIZES)
    @pytest.mark.parametrize("model", list(ModelKind))
    def test_peak_is_the_sample_plus_block_scratch(self, model, n):
        # The scratch is one block's, however many shards the sample has.
        tracemalloc.start()
        try:
            mc_summary(model, OFFSET_BOX, n, seed=79)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The sample; a d2 block and the share's temporaries; and the
        # summary's block-sized scratch.
        assert peak <= 8 * n + 5 * 8 * BLOCK + 2**20


class TestConvergence:
    N = 200_000

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_sample_mean_matches_closed_form_mean(self, model):
        summary = mc_summary(model, GOLDEN, self.N, seed=42)
        exact = estimate(model, RiskProfile.MSE, GOLDEN).theta1
        assert abs(summary.mean - exact) <= 4.0 * summary.std_error_of_mean

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_empirical_cdf_matches_quadrature(self, model):
        samples = sample_thetas(model, GOLDEN, self.N, seed=13)
        for t in (0.2, 0.3, 0.45):
            expected = cdf_at(model, GOLDEN, t)
            observed = float(np.mean(samples <= t))
            sigma = math.sqrt(expected * (1.0 - expected) / self.N)
            assert abs(observed - expected) <= 4.0 * sigma + 1e-9


class TestRandomValidBounds:
    def test_draws_satisfy_every_constraint(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            bounds = random_valid_bounds(rng)
            assert 0.0 <= bounds.a <= bounds.b <= 1.0
            assert 0.0 <= bounds.c <= bounds.d <= 1.0
            assert bounds.b + bounds.d <= 1.0

    def test_deterministic_given_generator_state(self):
        rng_a = np.random.default_rng(33)
        rng_b = np.random.default_rng(33)
        first = [random_valid_bounds(rng_a) for _ in range(5)]
        second = [random_valid_bounds(rng_b) for _ in range(5)]
        assert first == second
        assert len({(b.a, b.b, b.c, b.d) for b in first}) == 5


class TestImports:
    def test_sampler_does_not_load_the_quadrature_engine(self):
        # The package __init__ imports every module, so the probe registers
        # a bare package and imports the sampler alone.
        package = Path(nashroyalty.__file__).resolve().parent
        probe = (
            "import sys, types\n"
            "package = types.ModuleType('nashroyalty')\n"
            f"package.__path__ = [{str(package)!r}]\n"
            "sys.modules['nashroyalty'] = package\n"
            "import nashroyalty.montecarlo\n"
            "print('nashroyalty.posterior' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
