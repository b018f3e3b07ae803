"""Monte Carlo sampling of the share distribution, with a pinned PRNG.

This is the second independent verification channel (alongside the
quadrature engine in :mod:`nashroyalty.posterior`).  Reproducibility is
part of the contract:

* The bit generator is NumPy's PCG64, constructed explicitly so a change
  of NumPy's default generator cannot alter streams.
* Draws are produced in fixed shards of 2**18 pairs.  Shard ``i`` uses the
  seed sequence ``SeedSequence(seed, spawn_key=(i,))`` and shards are
  concatenated in index order.
* A shard always consumes its full block of draws (all 2**18 d1 values,
  then all 2**18 d2 values) even when only part of it is needed, so a
  sample of size n is a prefix of every larger sample with the same seed
  and is independent of how many workers might execute shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bargaining import PayoffBounds, as_share_model, validate_bounds
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
    the share is nowhere defined raises :class:`DegeneratePayoffsError`.
    """
    share = as_share_model(model)
    n = int(n)
    if n < 1:
        raise OutOfRangeError(f"n must be at least 1, got {n!r}")
    share.support(bounds)  # raises where the share is nowhere defined
    a, b, c, d = bounds.a, bounds.b, bounds.c, bounds.d
    out = np.empty(n, dtype=np.float64)
    for index in range((n + SHARD_SIZE - 1) // SHARD_SIZE):
        start = index * SHARD_SIZE
        stop = min(n, start + SHARD_SIZE)
        m = stop - start
        rng = _shard_rng(seed, index)
        # Full fixed-size blocks keep short samples prefixes of long ones.
        d1 = rng.uniform(a, b, SHARD_SIZE)[:m]
        d2 = rng.uniform(c, d, SHARD_SIZE)[:m]
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
    0.05, 0.25, 0.5, 0.75 and 0.95, using linear interpolation between
    order statistics; ``histogram_mode`` is the center of the fullest of
    ``bin_count`` (201) equal bins over [0, 1] (lowest such bin on ties).
    ``seed`` records provenance when known.
    """

    n: int
    mean: float
    std_error_of_mean: float
    quantiles: tuple[tuple[float, float], ...]
    histogram_mode: float
    bin_count: int
    seed: int | None = None


def summarize(samples, seed: int | None = None) -> SampleSummary:
    """Summarize a share sample; raises :class:`EmptySampleError` if empty.

    The standard error of the mean uses the unbiased sample variance and
    is reported as 0 for a single observation.
    """
    arr = np.asarray(samples, dtype=np.float64).ravel()
    if arr.size == 0:
        raise EmptySampleError("cannot summarize an empty sample")
    n = int(arr.size)
    mean = float(arr.mean())
    if n > 1:
        se = float(arr.std(ddof=1) / math.sqrt(n))
    else:
        se = 0.0
    quantiles = tuple((p, float(np.quantile(arr, p))) for p in _QUANTILE_PROBS)
    counts, edges = np.histogram(arr, bins=_BIN_COUNT, range=(0.0, 1.0))
    k = int(np.argmax(counts))
    histogram_mode = float((edges[k] + edges[k + 1]) / 2.0)
    return SampleSummary(
        n=n,
        mean=mean,
        std_error_of_mean=se,
        quantiles=quantiles,
        histogram_mode=histogram_mode,
        bin_count=_BIN_COUNT,
        seed=seed,
    )


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
