"""Deterministic RNG plumbing.

Every stochastic component (input generators, fault planners, campaigns)
derives its generator from a root seed plus a string tag, so campaigns are
reproducible bit-for-bit and independent components never share a stream.
:func:`derive_rng` is the one definition of a ``(seed, tag)`` stream.

A campaign knows every trial seed before its first trial runs, so it
derives the fault streams of all its trials in one batched pass
(:class:`StreamTable`, built on :func:`stream_words`, a NumPy-vectorised
copy of ``SeedSequence``'s pool hash and ``generate_state``) instead of
building a ``SeedSequence`` per trial and tag. A table's Generator draws
exactly what ``derive_rng`` draws for the same ``(seed, tag)``. The
trial streams' tags are named once, in :data:`TRIAL_STREAM_TAGS`.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

#: The per-trial fault streams of the campaign levels: the uarch planner
#: and the uarch fault's site draw at the fire (or settle, or rebind);
#: the software (``sw``/``sw-ld``) and source-level planners.
UARCH_PLAN = "uarch-plan"
UARCH_FIRE = "uarch-fire"
SW_PLAN = "sw-plan"
SRC_PLAN = "svf-src-plan"
TRIAL_STREAM_TAGS = (UARCH_PLAN, UARCH_FIRE, SW_PLAN, SRC_PLAN)


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


# ------------------------------------------------- batched SeedSequence
#
# NumPy's SeedSequence (numpy/random/bit_generator.pyx) in uint32
# arithmetic. Its multiplier chains advance by call count alone, never by
# data, so every hash constant is fixed in advance and one pass hashes a
# whole batch of seeds.

_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n`` values of ``h <- h * mult`` from ``init``."""
    out, h = [], init
    for _ in range(n):
        out.append(h)
        h = h * mult & _MASK32
    return np.array(out, dtype=np.uint32)


#: ``hashmix`` call ``i`` xors with ``_XOR_A[i]`` and multiplies by
#: ``_XOR_A[i + 1]``; room for 16 pool calls and a 4-word spawn key.
_XOR_A = _chain(_INIT_A, _MULT_A, 4 * _POOL + 4 * _POOL + 1)
#: ``generate_state`` output word ``i``: xor with ``_XOR_B[i]``, multiply
#: by ``_XOR_B[i + 1]``; 4 uint64 words are 8 uint32 words.
_XOR_B = _chain(_INIT_B, _MULT_B, 2 * 4 + 1)


def _hashmix(value: np.ndarray, call) -> np.ndarray:
    """SeedSequence's ``hashmix`` for hash call(s) ``call`` (an int, or an
    array of call numbers broadcast against ``value``)."""
    value = (value ^ _XOR_A[call]) * _XOR_A[np.add(call, 1)]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


def _int_words(value: int) -> list[int]:
    """``value`` as NumPy splits an integer: little-endian uint32 words,
    high zero words dropped (``0`` is one word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_pools(seeds) -> np.ndarray:
    """The ``(4, n)`` uint32 pools after mixing each seed's run entropy.

    With a spawn key present NumPy pads a seed's words to the pool size,
    so a seed in ``[0, 2**64)`` hashes as ``[lo, hi, 0, 0]`` whether or
    not its high word is zero."""
    s = np.array(seeds, dtype=np.uint64)
    words = np.zeros((_POOL, len(s)), dtype=np.uint32)
    words[0] = s & np.uint64(_MASK32)
    words[1] = s >> np.uint64(32)
    mixer = _hashmix(words, np.arange(_POOL)[:, None])
    call = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(mixer[src], np.arange(call, call + len(dst))[:, None])
        mixer[dst] = _mix(mixer[dst], hashed)
        call += len(dst)
    return mixer


def stream_words(seeds, tags) -> dict[str, np.ndarray]:
    """Each tag's ``(len(seeds), 4)`` uint64 PCG64 seed words.

    Row ``i`` of ``words[tag]`` equals
    ``np.random.SeedSequence(entropy=seeds[i], spawn_key=(
    _tag_to_entropy(tag),)).generate_state(4, np.uint64)``, the words
    ``PCG64`` seeds itself from in :func:`derive_rng`. Seeds are integers
    in ``[0, 2**64)``. Tags whose spawn keys split into the same number of
    words are hashed together in one stacked pass.
    """
    pools = _seed_pools(seeds)
    n = pools.shape[1]
    by_length: dict[int, list[tuple[str, list[int]]]] = {}
    for tag in dict.fromkeys(tags):
        key = _int_words(_tag_to_entropy(tag))
        by_length.setdefault(len(key), []).append((tag, key))
    out = {}
    for length, group in by_length.items():
        # (4, tags * seeds): each tag's copy of the seed pools, side by side
        mixer = np.tile(pools, len(group))
        keys = np.repeat(np.array([k for _, k in group], dtype=np.uint32),
                         n, axis=0)
        call = _POOL * _POOL
        for j in range(length):
            hashed = _hashmix(keys[:, j], np.arange(call, call + _POOL)[:, None])
            mixer = _mix(mixer, hashed)
            call += _POOL
        # generate_state(4, uint64): 8 uint32 words cycling over the pool
        state = mixer[np.arange(8) % _POOL] ^ _XOR_B[:8, None]
        state *= _XOR_B[1:9, None]
        state ^= state >> np.uint32(16)
        # paired little-endian into uint64, as generate_state pairs them
        words = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
        for i, (tag, _) in enumerate(group):
            out[tag] = words[i * n:(i + 1) * n]
    return out


class _StoredWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands ``PCG64`` precomputed state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("stored words seed PCG64 only (4 uint64 words)")
        return self.words


class StreamTable:
    """The per-trial fault streams of one campaign, derived in one pass.

    ``StreamTable(seeds, tags)(seed, tag)`` is a fresh Generator that
    draws exactly what ``derive_rng(seed, tag)`` draws; each call builds a
    new ``PCG64``, so no bit generator is shared between calls. Asking
    for a seed or tag the table was not built with raises ``KeyError``.
    """

    def __init__(self, seeds, tags):
        seeds = [int(s) for s in seeds]
        self._row = {s: i for i, s in enumerate(seeds)}
        self._words = stream_words(seeds, tags)

    def __call__(self, seed: int, tag: str) -> np.random.Generator:
        try:
            words = self._words[tag][self._row[seed]]
        except KeyError:
            raise KeyError(f"no {tag!r} stream for seed {seed} in this "
                           f"campaign's stream table") from None
        return np.random.Generator(np.random.PCG64(_StoredWords(words)))


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
