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
  a sample of size n is a prefix of every larger sample with the same seed
  and is independent of how many workers might execute shards.  Only the
  values a sample returns are generated; the rest of each block is
  skipped with PCG64's jump-ahead (``advance``, O'Neill 2014), which
  leaves the stream where drawing the whole block would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bargaining import PayoffBounds, _require_count, as_share_model, validate_bounds
from .errors import EmptySampleError, OutOfRangeError

__all__ = [
    "SHARD_SIZE",
    "SampleSummary",
    "sample_thetas",
    "summarize",
    "mc_summary",
    "random_valid_bounds",
]

SHARD_SIZE = 1 << 18

# What every summary reports: these quantiles, and the fullest of this
# many equal bins over [0, 1].
_QUANTILE_PROBS = (0.05, 0.25, 0.5, 0.75, 0.95)
_BIN_COUNT = 201


def _shard_rng(seed: int, index: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(sequence))


def sample_thetas(model, bounds: PayoffBounds, n: int, seed: int) -> np.ndarray:
    """Draw n share values under independent uniform payoffs.

    Deterministic in (model, bounds, n, seed).  A drawn pair where the
    share is undefined (the proportional model at exactly (0, 0), possible
    only when a = c = 0) is redrawn within its shard; a rectangle on which
    the share is nowhere defined raises :class:`DegeneratePayoffsError`, and
    an ``n`` that is not an integer of at least 1 :class:`OutOfRangeError`.
    """
    share = as_share_model(model)
    n = _require_count("n", n, 1)
    share.support(bounds)  # raises where the share is nowhere defined
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    out = np.empty(n, dtype=np.float64)
    for index in range((n + SHARD_SIZE - 1) // SHARD_SIZE):
        start = index * SHARD_SIZE
        stop = min(n, start + SHARD_SIZE)
        m = stop - start
        rng = _shard_rng(seed, index)
        # Fixed-size blocks keep short samples prefixes of long ones; each
        # uniform double takes one step of the stream.
        d1 = rng.uniform(a, b, m)
        rng.bit_generator.advance(SHARD_SIZE - m)
        d2 = rng.uniform(c, d, m)
        rng.bit_generator.advance(SHARD_SIZE - m)
        out[start:stop] = _shard_thetas(share, bounds, rng, d1, d2)
    return out


def _shard_thetas(share, bounds: PayoffBounds, rng, d1, d2) -> np.ndarray:
    """Clipped shares of one shard's pairs, redrawing undefined pairs."""
    with np.errstate(invalid="ignore"):  # 0/0 marks an undefined pair
        theta = share.theta(d1, d2)
        while math.isnan(theta.sum()):  # rare, so no mask unless needed
            stuck = np.isnan(theta)
            k = int(stuck.sum())
            d1[stuck] = rng.uniform(bounds.a, bounds.b, k)
            d2[stuck] = rng.uniform(bounds.c, bounds.d, k)
            theta[stuck] = share.theta(d1[stuck], d2[stuck])
    return np.clip(theta, 0.0, 1.0)


@dataclass(frozen=True)
class SampleSummary:
    """Descriptive statistics of a share sample.

    ``quantiles`` holds (probability, value) pairs at the probabilities
    0.05, 0.25, 0.5, 0.75 and 0.95, by numpy's default ``linear`` rule
    (``np.quantile``'s values, bit for bit); ``histogram_mode`` is the
    center of the fullest of ``bin_count`` (201) equal bins over [0, 1]
    (lowest such bin on ties).  ``seed`` records provenance when known.
    """

    n: int
    mean: float
    std_error_of_mean: float
    quantiles: tuple[tuple[float, float], ...]
    histogram_mode: float
    bin_count: int
    seed: int | None = None


def summarize(samples, seed: int | None = None) -> SampleSummary:
    """Summarize a share sample in [0, 1].

    Raises :class:`EmptySampleError` if the sample is empty and
    :class:`OutOfRangeError` if any value is NaN or lies outside [0, 1].
    The quantiles equal ``np.quantile``'s default ``linear`` rule bit for
    bit.  The standard error of the mean uses the unbiased sample
    variance and is reported as 0 for a single observation.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptySampleError("cannot summarize an empty sample")
    n = int(arr.size)
    # The histogram drops NaN and every value outside [0, 1], so a full
    # count shows the whole sample lies in [0, 1] without a pass of its own.
    counts, edges = np.histogram(arr, bins=_BIN_COUNT, range=(0.0, 1.0))
    outside = n - int(counts.sum())
    if outside:
        raise OutOfRangeError(
            f"a share sample must lie in [0, 1]; {outside} of {n} values do not"
        )
    mean = float(arr.mean())
    if n > 1:
        se = float(arr.std(ddof=1) / math.sqrt(n))
    else:
        se = 0.0
    k = int(np.argmax(counts))
    histogram_mode = float((edges[k] + edges[k + 1]) / 2.0)
    return SampleSummary(
        n=n,
        mean=mean,
        std_error_of_mean=se,
        quantiles=_quantiles(arr, counts, edges),
        histogram_mode=histogram_mode,
        bin_count=_BIN_COUNT,
        seed=seed,
    )


def _quantiles(arr, counts, edges) -> tuple[tuple[float, float], ...]:
    """``np.quantile(arr, p)`` for each p in ``_QUANTILE_PROBS``.

    The histogram's cumulative counts name the bin that holds each order
    statistic the ``linear`` rule reads, so only those bins' elements are
    gathered and partitioned, never the whole sample.
    """
    n = arr.size
    positions = [(n - 1) * p for p in _QUANTILE_PROBS]
    ranks = sorted({min(r, n - 1) for v in positions for r in (int(v), int(v) + 1)})
    ends = np.cumsum(counts)
    bins = np.searchsorted(ends, ranks, side="right").tolist()
    order = {}  # rank -> order statistic
    # Masks reused across bins: fresh temporaries per bin cost twice as much.
    inside = np.empty(n, dtype=bool)
    below = np.empty(n, dtype=bool)
    for k in sorted(set(bins)):
        # np.histogram's edge rule: edges[k] <= x < edges[k + 1], the
        # last bin closed on the right.
        np.greater_equal(arr, edges[k], out=inside)
        upper = np.less if k < len(counts) - 1 else np.less_equal
        upper(arr, edges[k + 1], out=below)
        inside &= below
        members = arr[inside]
        first = int(ends[k]) - len(members)
        local = [r - first for r, b in zip(ranks, bins) if b == k]
        members.partition(local)
        order.update((first + i, float(members[i])) for i in local)
    quantiles = []
    for p, v in zip(_QUANTILE_PROBS, positions):
        i = int(v)
        lo, hi = order[min(i, n - 1)], order[min(i + 1, n - 1)]
        # numpy's _lerp: interpolate from the nearer order statistic.
        gamma = v - i
        step = hi - lo
        value = hi - step * (1.0 - gamma) if gamma >= 0.5 else lo + step * gamma
        quantiles.append((p, value))
    return tuple(quantiles)


def mc_summary(model, bounds: PayoffBounds, n: int, seed: int) -> SampleSummary:
    """Sample and summarize in one step, recording the seed."""
    samples = sample_thetas(model, bounds, n, seed)
    return summarize(samples, seed=seed)


def random_valid_bounds(rng: np.random.Generator) -> PayoffBounds:
    """Draw payoff bounds uniformly over the valid parameter polytope.

    Rejection sampling from the unit hypercube: keep (a, b, c, d) when
    a <= b, c <= d, and b + d <= 1 (acceptance rate about 1/24).
    """
    while True:
        a, b, c, d = rng.uniform(0.0, 1.0, 4)
        if a <= b and c <= d and b + d <= 1.0:
            return validate_bounds(a, b, c, d)
