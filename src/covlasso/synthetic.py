"""Deterministic synthetic logit generator with planted dependencies.

Reproducibility across languages and library versions matters more here
than raw entropy, so random numbers come from a fully documented
generator rather than a platform RNG:

* Core stream: SplitMix64.  State advances by the 64-bit golden-ratio
  constant 0x9E3779B97F4A7C15; each output is the finalizer
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64) applied to the
  advanced state.  The k-th output of a stream seeded with s is therefore
  a pure function of (s, k).
* Uniform doubles in [0, 1): the top 53 bits, ``(u64 >> 11) * 2^-53``.
* Standard normals: Marsaglia polar.  Each attempt consumes exactly two
  uniforms a, b (in that order) to form u = 2a - 1, v = 2b - 1 and
  s = u^2 + v^2; attempts with s >= 1 or s == 0 are rejected.  An
  accepted attempt emits u * sqrt(-2 ln(s) / s) first and
  v * sqrt(-2 ln(s) / s) second.
* Stream splitting: substreams are derived per (purpose tag, column) as
  ``child = mix(mix(seed + (tag+1) * GAMMA) + (index+1) * GAMMA)`` where
  ``mix`` is the SplitMix64 finalizer and GAMMA the golden-ratio
  constant.  Tags: 1 = mixing weights, 2 = latent factors, 3 = noise.

Logits are generated as a rank-``latent_rank`` linear model: a weight
matrix W (n x r, entries N(0, 1/r), filled column by column) applied to
per-sample latent factors z ~ N(0, I_r) (also filled column by column).
A planted dependency overwrites the target column with the requested
linear combination of other columns before labels are taken, and labels
are always the argmax of the noise-free logits; target noise, if any,
is added afterwards.  Noise goes on the planted target only, so a
positive ``noise_sigma`` without a planted dependency is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import LogitMatrix, check_size
from .errors import InvalidInput

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1
_K1 = 0xBF58476D1CE4E5B9
_K2 = 0x94D049BB133111EB

TAG_WEIGHTS = 1
TAG_LATENT = 2
TAG_NOISE = 3


def mix64(z):
    """SplitMix64 output finalizer on a 64-bit int or a uint64 array."""
    z = ((z ^ (z >> 30)) * _K1) & _MASK
    z = ((z ^ (z >> 27)) * _K2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, tag: int, index: int) -> int:
    """Substream seed for (tag, index); see the module docstring."""
    child = mix64((seed + (tag + 1) * GAMMA) & _MASK)
    return mix64((child + (index + 1) * GAMMA) & _MASK)


def _outputs(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64 outputs number start+1 .. start+count of a stream.

    The linear state recurrence makes random access trivial:
    state after k draws is seed + k * GAMMA mod 2^64.
    """
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return mix64(np.uint64(seed) + np.uint64(GAMMA) * idx)


def unit_doubles(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform doubles in [0, 1) from a SplitMix64 stream."""
    return (_outputs(seed, start, count) >> np.uint64(11)) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """``count`` standard normals via Marsaglia polar on one stream.

    Vectorized evaluation of the sequential algorithm documented above:
    uniforms are consumed strictly in pairs, one pair per attempt, and
    accepted attempts emit their two normals in order, so generating
    attempts in blocks reproduces the scalar loop bit for bit.
    """
    if count < 0:
        raise InvalidInput("count must be nonnegative")
    out = np.empty(count)
    filled = 0
    consumed = 0  # uniforms drawn so far
    while filled < count:
        pairs_needed = (count - filled + 1) // 2
        attempts = max(16, int(pairs_needed / 0.7) + 8)
        raw = unit_doubles(seed, 2 * attempts, start=consumed)
        consumed += 2 * attempts
        u = 2.0 * raw[0::2] - 1.0
        v = 2.0 * raw[1::2] - 1.0
        s = u * u + v * v
        keep = (s < 1.0) & (s > 0.0)
        if not np.any(keep):
            continue
        su, sv, ss = u[keep], v[keep], s[keep]
        scale = np.sqrt(-2.0 * np.log(ss) / ss)
        pair_block = np.empty(2 * su.size)
        pair_block[0::2] = su * scale
        pair_block[1::2] = sv * scale
        take = min(pair_block.size, count - filled)
        out[filled : filled + take] = pair_block[:take]
        filled += take
    return out


@dataclass(frozen=True)
class PlantedDependency:
    """Ground-truth sparse combination to overwrite the target with.

    Built from ``(index, weight)`` pairs, kept sorted by index: the
    order in which ``generate`` sums the combination.
    """

    target: int
    support: tuple[int, ...]
    coefficients: tuple[float, ...]

    def __init__(self, target: int, pairs):
        pairs = sorted((int(j), float(w)) for j, w in pairs)
        object.__setattr__(self, "target", int(target))
        object.__setattr__(self, "support", tuple(j for j, _ in pairs))
        object.__setattr__(self, "coefficients", tuple(w for _, w in pairs))


def _validate(n, samples, latent_rank, noise_sigma, planted, seed) -> None:
    if not -(1 << 63) <= seed <= _MASK:
        raise InvalidInput(f"seed must lie in [-2^63, 2^64), got {seed}")
    if n < 1:
        raise InvalidInput("need at least one category")
    if samples < 1:
        raise InvalidInput("need at least one sample")
    if latent_rank < 1:
        raise InvalidInput("latent rank must be at least 1")
    check_size((n, latent_rank), (samples, latent_rank), (samples, n))
    if not math.isfinite(noise_sigma) or noise_sigma < 0.0:
        raise InvalidInput(f"noise sigma must be nonnegative, got {noise_sigma}")
    if planted is None:
        if noise_sigma > 0.0:
            raise InvalidInput(
                f"noise sigma {noise_sigma} needs a planted dependency: "
                "noise is added to the planted target only"
            )
        return
    if not 0 <= planted.target < n:
        raise InvalidInput(f"planted target {planted.target} outside [0, {n})")
    if not planted.support:
        raise InvalidInput("planted dependency needs at least one coefficient")
    seen = set()
    for j, w in zip(planted.support, planted.coefficients):
        if not 0 <= j < n:
            raise InvalidInput(f"planted index {j} outside [0, {n})")
        if j == planted.target:
            raise InvalidInput("planted support must not contain the target")
        if j in seen:
            raise InvalidInput(f"planted index {j} repeated")
        if not math.isfinite(w) or w == 0.0:
            raise InvalidInput(f"planted coefficient for {j} must be finite nonzero")
        seen.add(j)


def generate(
    n: int,
    samples: int,
    latent_rank: int,
    *,
    noise_sigma: float = 0.0,
    planted: PlantedDependency | None = None,
    seed: int = 0,
) -> LogitMatrix:
    """Generate a labeled logit matrix, bit-deterministic in the seed (mod 2^64)."""
    _validate(n, samples, latent_rank, noise_sigma, planted, seed)
    seed &= _MASK

    weights = np.empty((n, latent_rank))
    w_scale = 1.0 / math.sqrt(latent_rank)
    for k in range(latent_rank):
        weights[:, k] = normals(derive_seed(seed, TAG_WEIGHTS, k), n) * w_scale

    latent = np.empty((samples, latent_rank))
    for k in range(latent_rank):
        latent[:, k] = normals(derive_seed(seed, TAG_LATENT, k), samples)

    logits = np.einsum("ik,jk->ij", latent, weights)  # not BLAS: thread-count free
    # Overflowing weights or noise give non-finite logits: LogitMatrix says so.
    with np.errstate(over="ignore", invalid="ignore"):
        if planted is not None:
            combo = np.zeros(samples)
            for j, w in zip(planted.support, planted.coefficients):
                combo += w * logits[:, j]
            logits[:, planted.target] = combo
        labels = np.argmax(logits, axis=1).astype(np.int64)
        if noise_sigma > 0.0:
            noise = normals(derive_seed(seed, TAG_NOISE, planted.target), samples)
            logits[:, planted.target] += noise_sigma * noise
    return LogitMatrix(logits, labels)
