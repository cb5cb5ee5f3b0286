"""Deterministic RNG plumbing.

Every stochastic component (input generators, fault planners, campaigns)
derives its generator from a root seed plus a string tag, so campaigns are
reproducible bit-for-bit and independent components never share a stream.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.lru_cache(maxsize=1024)
def _tag_to_entropy(tag: str) -> int:
    """Map an arbitrary string tag to a stable 128-bit integer."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def derive_rng(seed: int, tag: str) -> np.random.Generator:
    """Return a Generator keyed by ``(seed, tag)``.

    Distinct tags under the same seed give statistically independent streams;
    the same ``(seed, tag)`` always gives the identical stream.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_tag_to_entropy(tag),))
    return np.random.Generator(np.random.PCG64(ss))


def spawn_seeds(seed: int, tag: str, count: int) -> list[int]:
    """Derive ``count`` 63-bit child seeds for per-trial generators."""
    rng = derive_rng(seed, tag)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


@functools.lru_cache(maxsize=256)
def _normalised_cdf(weights: tuple) -> np.ndarray:
    """The read-only CDF ``Generator.choice`` builds from ``p = w / w.sum()``."""
    w = np.array(weights, dtype=float)
    if not (np.isfinite(w).all() and (w >= 0).all() and w.sum() > 0):
        raise ValueError(f"weights must be finite, non-negative and not all "
                         f"zero, got {weights!r}")
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def weighted_index(rng: np.random.Generator, weights) -> int:
    """Draw an index with probability proportional to ``weights``.

    Equal to ``rng.choice(len(weights), p=w / w.sum())`` and leaves
    ``rng`` at the same point (one ``random()`` draw), but the normalised
    CDF is built once per weight tuple instead of once per draw, and ``p``
    is not re-validated on every call.
    """
    cdf = _normalised_cdf(tuple(weights))
    return int(cdf.searchsorted(rng.random(), side="right"))
