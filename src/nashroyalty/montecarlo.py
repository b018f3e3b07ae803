"""Monte Carlo sampling of the share distribution, with a pinned PRNG.

This is the second independent verification channel (alongside the
quadrature engine in :mod:`nashroyalty.posterior`).  Reproducibility is
part of the contract:

* The bit generator is NumPy's PCG64, constructed explicitly so a change
  of NumPy's default generator cannot alter streams.
* Draws are produced in fixed shards of 2**18 pairs.  Shard ``i`` uses the
  seed sequence ``SeedSequence(seed, spawn_key=(i,))`` and shards are
  concatenated in index order.
* Within a shard the d1 values occupy the first 2**18 positions of the
  stream and the d2 values the next 2**18, even when fewer are needed, so
  a sample of size n is a prefix of every larger sample with the same seed.
  Only the values a sample returns are generated; the rest of each block
  is skipped with PCG64's jump-ahead (``advance``, O'Neill 2014), which
  leaves the stream where drawing the whole block would.
* One cursor per shard reads both halves, a block at a time: it fills
  the block's d1 values, jumps ahead to its d2 values, and jumps back by
  advancing a full period of 2**128 steps less ``SHARD_SIZE``.  Each fill
  is ``Generator.random`` into the sample itself (d1) or into the shard's
  own block-sized scratch (d2), scaled in place by ``uniform``'s own
  arithmetic, so the values are ``uniform``'s bit for bit and a sample
  holds one block of scratch at a time.
* Shards are drawn in index order on the calling thread.  Each has its
  own stream and writes only its own slice of the sample.
* Undefined pairs are redrawn from the shard's stream after both halves,
  on a cursor of their own that exists only when a pair needs it.
* Every sample takes this one path.  A sample that is one block
  (n <= 2**15) draws its d1 and d2 payoffs into arrays it keeps,
  read-only, until the next one-block sample with other bounds, n or seed
  replaces them; a call with the same bounds, n and seed maps the kept
  payoffs through its own share instead of drawing them again, so the
  three models of one box draw their common random numbers once.  The
  kept payoffs are those the draw would give, so the bits do not change;
  at most 512 KiB stays held between calls.
"""

from __future__ import annotations

import math

import numpy as np

from .bargaining import (
    _MAX_COUNT,
    PayoffBounds,
    _Record,
    _require_bounds,
    _require_count,
    as_share_model,
)
from .errors import DegeneratePayoffsError, EmptySampleError, OutOfRangeError

__all__ = [
    "SHARD_SIZE",
    "SampleSummary",
    "sample_thetas",
    "summarize",
    "mc_summary",
    "random_valid_bounds",
]

SHARD_SIZE = 1 << 18
# PCG64's period: advancing this many steps leaves the stream where it is.
_PERIOD = 1 << 128
# Redraw rounds per shard: a model undefined on half the rectangle needs
# about 20 for 10**6 draws; one undefined everywhere would never stop.
_REDRAW_ROUNDS = 64

# What every summary reports: these quantiles, and the fullest of this
# many equal bins over [0, 1].
_QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)
_BIN_COUNT = 201
_EDGES = np.linspace(0.0, 1.0, _BIN_COUNT + 1)  # np.histogram's bin edges

# A summary reads its sample in blocks of this many values, whose scratch
# arrays stay in cache, and over about this many fine buckets.  A sampler
# shard draws its payoffs a block at a time.
_BLOCK = 1 << 15
_BUCKETS = 4096
# np.histogram's edge correction can change a bin only where 201 x lies
# within about 6e-14 of an integer; a block with a value this close to one
# is binned by np.histogram.
_NEAR_EDGE = 1e-12


# The last one-block sample's payoffs: ((a, b, c, d, n, seed, _shard_rng),
# d1, d2), both arrays read-only, or None.  Replaced whole, never written.
_last = None


def _shard_rng(seed: int, index: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(sequence))


def sample_thetas(model, bounds: PayoffBounds, n: int, seed: int) -> np.ndarray:
    """Draw n share values under independent uniform payoffs.

    Deterministic in (model, bounds, n, seed).  A drawn pair where the
    share is undefined (the proportional model at exactly (0, 0), possible
    only when a = c = 0) is redrawn within its shard; a rectangle on which
    the share is nowhere defined raises :class:`DegeneratePayoffsError`, as
    do pairs still undefined after 64 rounds of redraws.  An ``n`` that is
    not an integer from 1 to ``sys.maxsize // 8`` (the most doubles one
    array can hold), or a ``seed`` that is not an integer of at least 0,
    raises :class:`OutOfRangeError`.

    Shards are drawn in index order on the calling thread, each into its
    own slice of the result: the clipped shares of its first pairs, a
    block at a time from :func:`_payoff_blocks`, then the undefined ones
    redrawn (see :func:`_redraw`).  A sample of one block (n <= 2**15)
    reuses the payoffs of the last such sample when its bounds, n and seed
    are the same (see :func:`_payoff_blocks`), with the same bits.  The
    result is always a new array of the caller's own.
    """
    share = as_share_model(model)
    bounds = _require_bounds(bounds)
    n = _require_count("n", n, 1, _MAX_COUNT)
    seed = _require_count("seed", seed, 0)  # None would draw OS entropy
    share.support(bounds)  # raises where the share is nowhere defined
    out = np.empty(n, dtype=np.float64)
    with np.errstate(invalid="ignore"):  # 0/0 marks an undefined pair
        for index, start in enumerate(range(0, n, SHARD_SIZE)):
            theta = out[start : start + SHARD_SIZE]
            for x, d1, d2 in _payoff_blocks(bounds, seed, index, theta):
                np.clip(share.theta(d1, d2), 0.0, 1.0, out=x)
            _redraw(share, bounds, seed, index, theta)
    return out


def _payoff_blocks(bounds: PayoffBounds, seed: int, index: int, theta):
    """Each block of ``theta``, shard ``index``'s slice, with its d1 and d2
    payoffs.

    The d1 draws take the first ``SHARD_SIZE`` steps of the shard's stream
    and the d2 draws the next ``SHARD_SIZE``, even when fewer are needed, so
    short samples stay prefixes of long ones.  One cursor reads both halves
    a ``_BLOCK`` at a time: it fills the block's d1 values, jumps ahead to
    its d2 values, and, unless the block is the last, jumps back to the next
    d1 values by advancing ``2**128 - SHARD_SIZE`` steps, a full period of
    PCG64 less ``SHARD_SIZE``.  The d1 values are drawn into the block
    itself, which their shares then overwrite, and the d2 values into one
    block-sized scratch array that the shard keeps for all its blocks (see
    :func:`mc_summary`).

    A whole sample of one block (shard 0 with at most ``_BLOCK`` pairs)
    draws both halves into arrays of its own and keeps them, read-only, in
    ``_last``, keyed by bounds, n, seed and ``_shard_rng`` (which tests
    replace).  A later sample with the same key reads them from there and
    constructs no generator; any other one-block sample drops them before
    it draws, so at most 512 KiB is held.  The entry is replaced whole and
    its arrays are never written, so threads may share it; a race costs
    only a second draw.
    """
    global _last
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    m = theta.size
    key = None
    if index == 0 and m <= _BLOCK:  # the whole sample is one block
        key = (a, b, c, d, m, seed, _shard_rng)
        last = _last
        if last is not None and last[0] == key:
            yield theta, last[1], last[2]
            return
        _last = None
    rng = _shard_rng(seed, index)
    cursor = rng.bit_generator
    d2 = np.empty(min(m, _BLOCK))
    for start in range(0, m, _BLOCK):
        x = theta[start : start + _BLOCK]
        k = x.size
        d1 = x if key is None else np.empty(k)
        y = d2[:k]
        _fill_uniform(rng, d1, a, b)
        cursor.advance(SHARD_SIZE - k)  # to this block's d2 draws
        _fill_uniform(rng, y, c, d)
        if start + k < m:
            cursor.advance(_PERIOD - SHARD_SIZE)  # back to the next d1 draws
        if key is not None:
            d1.flags.writeable = d2.flags.writeable = False
            _last = (key, d1, d2)
        yield x, d1, y


def _redraw(share, bounds: PayoffBounds, seed: int, index: int, theta) -> None:
    """Redraw the undefined (NaN) shares of shard ``index``'s ``theta``.

    Only when one is present, a new cursor on the shard's stream skips both
    halves; each round then draws the next d1 values, one per undefined
    pair, and then the next d2 values.  After ``_REDRAW_ROUNDS`` rounds
    pairs still undefined raise :class:`DegeneratePayoffsError`.  Runs under
    the caller's ``errstate``.
    """
    if not math.isnan(theta.sum()):  # rare, so no cursor or mask unless needed
        return
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    rng = _shard_rng(seed, index)
    rng.bit_generator.advance(2 * SHARD_SIZE)  # past both halves
    rounds = 0
    while math.isnan(theta.sum()):
        stuck = np.isnan(theta)
        k = int(stuck.sum())
        if rounds == _REDRAW_ROUNDS:
            raise DegeneratePayoffsError(
                f"the share stayed undefined at {k} of shard {index}'s "
                f"{theta.size} payoff pairs after {rounds} rounds of redraws"
            )
        rounds += 1
        x, y = np.empty(k), np.empty(k)
        _fill_uniform(rng, x, a, b)
        _fill_uniform(rng, y, c, d)
        theta[stuck] = np.clip(share.theta(x, y), 0.0, 1.0)


def _fill_uniform(rng: np.random.Generator, out, low: float, high: float) -> None:
    """Write ``rng.uniform(low, high, out.size)`` to ``out``, bit for bit.

    numpy's ``uniform`` draws the same doubles as ``random`` and returns
    ``low + (high - low) * u``; this applies that arithmetic in place, so
    no new array is made.
    """
    rng.random(out=out)
    out *= high - low
    out += low


class SampleSummary(_Record):
    """Descriptive statistics of a share sample.

    ``quantiles`` holds (probability, value) pairs at the probabilities
    0.05, 0.25, 0.5, 0.75 and 0.95, by numpy's default ``linear`` rule
    (``np.quantile``'s values, bit for bit); ``histogram_mode`` is the
    center of the fullest of 201 equal bins over [0, 1] (lowest such bin
    on ties), binned by ``np.histogram``'s edges.
    ``seed`` records provenance when known.
    """

    n: int
    mean: float
    std_error_of_mean: float
    quantiles: tuple[tuple[float, float], ...]
    histogram_mode: float
    seed: int | None
    __slots__ = tuple(__annotations__)


def summarize(samples, seed: int | None = None) -> SampleSummary:
    """Summarize a share sample in [0, 1].

    Raises :class:`EmptySampleError` if the sample is empty and
    :class:`OutOfRangeError` if any value is NaN or lies outside [0, 1].
    The quantiles equal ``np.quantile``'s default ``linear`` rule bit for
    bit and the histogram ``np.histogram``'s, but the sample is never
    sorted: two passes over blocks of it count fine buckets, then gather
    the few buckets that hold the order statistics the rule reads (see
    :class:`_FineGrid`).  The standard error of the mean uses
    the unbiased sample variance and is reported as 0 for a single
    observation.  The caller's array is not written.
    """
    return _summary(np.asarray(samples, dtype=np.float64).ravel(), seed, own=False)


def _summary(arr, seed: int | None, own: bool) -> SampleSummary:
    """:func:`summarize` of a flat float64 array; ``own`` lets the variance
    overwrite ``arr`` instead of taking a temporary the size of the sample."""
    if arr.size == 0:
        raise EmptySampleError("cannot summarize an empty sample")
    n = int(arr.size)
    lo, hi = float(arr.min()), float(arr.max())
    if not 0.0 <= lo <= hi <= 1.0:  # NaN fails every comparison
        inside = int(np.count_nonzero((arr >= 0.0) & (arr <= 1.0)))
        raise OutOfRangeError(
            f"a share sample must lie in [0, 1]; {n - inside} of {n} values do not"
        )
    mean = float(arr.mean())
    grid = _FineGrid(lo, hi)
    fine, counts = grid.count(arr)
    positions = [(n - 1) * p for p in _QUANTILE_PROBS]
    ranks = sorted({min(r, n - 1) for v in positions for r in (int(v), int(v) + 1)})
    order = grid.order_statistics(arr, fine, ranks)
    quantiles = []
    for p, v in zip(_QUANTILE_PROBS, positions):
        i = int(v)
        lo_value, hi_value = order[min(i, n - 1)], order[min(i + 1, n - 1)]
        # numpy's _lerp: interpolate from the nearer order statistic.
        gamma = v - i
        step = hi_value - lo_value
        if gamma >= 0.5:
            quantiles.append((p, hi_value - step * (1.0 - gamma)))
        else:
            quantiles.append((p, lo_value + step * gamma))
    k = int(np.argmax(counts))
    if n == 1:
        se = 0.0
    else:  # the steps of arr.std(ddof=1), whose mean is arr.mean()
        spread = np.subtract(arr, mean, out=arr if own else None)
        np.square(spread, out=spread)
        se = float(np.sqrt(np.add.reduce(spread) / (n - 1)) / math.sqrt(n))
    return SampleSummary(
        n=n,
        mean=mean,
        std_error_of_mean=se,
        quantiles=tuple(quantiles),
        histogram_mode=float((_EDGES[k] + _EDGES[k + 1]) / 2.0),
        seed=seed,
    )


class _FineGrid:
    """Monotone fine buckets over a sample's own range [lo, hi].

    Value x falls in bucket ``floor(x * scale) - offset``, where ``scale``
    is 201 times a power of two: the buckets split every histogram bin into
    ``2**shift`` equal parts, and about ``_BUCKETS`` of them span [lo, hi]
    down to a range of 2**-45 of a bin (a narrower one, zero and subnormal
    widths included, gets one or two buckets).
    Rounding is monotone, so a bucket's values all lie at or above those of
    every lower bucket, and counts alone locate each order statistic.
    Both passes read the sample in blocks of ``_BLOCK`` values through a
    few scratch arrays of that size.
    """

    def __init__(self, lo: float, hi: float):
        # Keep x * scale below 2**53, where floats hold integers exactly;
        # subtracting the integer offset is then exact too.
        shift = 45
        while shift and _BIN_COUNT * 2.0**shift * (hi - lo) > _BUCKETS:
            shift -= 1
        self.shift = shift
        self.scale = _BIN_COUNT * 2.0**shift
        self.offset = math.floor(lo * self.scale)
        self.size = math.floor(hi * self.scale) - self.offset + 1
        self._scaled = np.empty(_BLOCK)
        self._bucket = np.empty(_BLOCK, dtype=np.uint16)

    def _blocks(self, arr):
        """Each block of ``arr`` with its values' buckets."""
        for start in range(0, arr.size, _BLOCK):
            block = arr[start : start + _BLOCK]
            scaled = self._scaled[: block.size]
            bucket = self._bucket[: block.size]
            np.multiply(block, self.scale, out=scaled)
            np.subtract(scaled, self.offset, out=scaled)
            np.copyto(bucket, scaled, casting="unsafe")  # floor: scaled >= 0
            yield block, bucket

    def count(self, arr):
        """Bucket counts, and ``np.histogram``'s 201 bin counts over [0, 1].

        Each bucket lies in one bin, the bin floor(201 x) of its values.
        ``np.histogram`` starts from that bin and moves x to a neighbour
        where a comparison with the edges says so, which can happen only
        when 201 x lies within about 6e-14 of an integer.  Blocks with no
        value that close add their buckets to their bins; the rare block
        with one is binned by ``np.histogram`` itself.
        """
        fine = np.zeros(self.size, dtype=np.intp)
        binned = np.zeros(self.size, dtype=np.intp)  # buckets np.histogram counted
        counts = np.zeros(_BIN_COUNT + 1, dtype=np.intp)  # bin 201: x = 1's bucket, empty
        frac = np.empty(_BLOCK)
        whole = np.empty(_BLOCK)
        for block, bucket in self._blocks(arr):
            block_fine = np.bincount(bucket, minlength=self.size)
            fine += block_fine
            f, w = frac[: block.size], whole[: block.size]
            np.multiply(block, float(_BIN_COUNT), out=f)
            np.floor(f, out=w)
            f -= w
            if f.min() < _NEAR_EDGE or f.max() > 1.0 - _NEAR_EDGE:
                counts[:_BIN_COUNT] += np.histogram(block, _BIN_COUNT, (0.0, 1.0))[0]
                binned += block_fine
        bins = (np.arange(self.size) + self.offset) >> self.shift
        np.add.at(counts, bins, fine - binned)
        return fine, counts[:_BIN_COUNT]

    def order_statistics(self, arr, fine, ranks) -> dict[int, float]:
        """The values of the given ranks (0-based) in the sorted sample."""
        ends = np.cumsum(fine)
        buckets = np.searchsorted(ends, ranks, side="right").tolist()
        wanted = sorted(set(buckets))
        # Gathered and sorted, the members of the wanted buckets hold them
        # one after another; first[k] is where bucket k starts there,
        # less the rank of its lowest value in the whole sample.
        first = {}
        size = 0
        for k in wanted:
            first[k] = size - int(ends[k] - fine[k])
            size += int(fine[k])
        want = np.zeros(self.size, dtype=bool)
        want[wanted] = True
        mask = np.empty(_BLOCK, dtype=bool)
        members = np.empty(size)
        stop = 0
        for block, bucket in self._blocks(arr):
            picked = mask[: block.size]
            np.take(want, bucket, out=picked)
            start, stop = stop, stop + int(np.count_nonzero(picked))
            np.compress(picked, block, out=members[start:stop])
        local = [r + first[k] for r, k in zip(ranks, buckets)]
        members.partition(local)
        return {r: float(members[i]) for r, i in zip(ranks, local)}


def mc_summary(model, bounds: PayoffBounds, n: int, seed: int) -> SampleSummary:
    """Sample and summarize in one step, recording the seed.

    The sample is this function's own, so its variance is taken in place.
    Each shard draws its payoffs on one cursor and computes its shares a
    block at a time, its d1 values into the sample itself and its d2 values
    into one block-sized scratch array, so a 10**6 sample adds about 1 MiB
    of block scratch to the sample's 8 MB.  Only a
    one-block sample (n <= 2**15) draws its payoffs into arrays of their
    own, which :func:`sample_thetas` keeps for its next call, so the
    in-place variance never reaches them.  A loop of
    calls stays below glibc's heap trim threshold (twice the largest block
    it has mapped and freed, 16 MB here), so it reuses its heap instead of
    returning it and faulting it back in on every call.
    """
    seed = _require_count("seed", seed, 0)
    return _summary(sample_thetas(model, bounds, n, seed), seed, own=True)


def random_valid_bounds(rng: np.random.Generator) -> PayoffBounds:
    """Draw payoff bounds uniformly over the valid parameter polytope.

    Rejection sampling from the unit hypercube: keep (a, b, c, d) when
    a <= b, c <= d, and b + d <= 1 (acceptance rate about 1/24).
    """
    while True:
        a, b, c, d = rng.uniform(0.0, 1.0, 4)
        if a <= b and c <= d and b + d <= 1.0:
            return PayoffBounds(a, b, c, d)
