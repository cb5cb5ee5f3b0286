import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.utils import rng as rng_mod
from repro.utils.rng import (
    TRIAL_STREAM_TAGS,
    StreamTable,
    derive_rng,
    spawn_seeds,
    stream_words,
    weighted_index,
)


def test_same_seed_tag_reproduces():
    a = derive_rng(42, "x").integers(0, 2**31, size=8)
    b = derive_rng(42, "x").integers(0, 2**31, size=8)
    assert (a == b).all()


def test_different_tags_differ():
    a = derive_rng(42, "x").integers(0, 2**31, size=8)
    b = derive_rng(42, "y").integers(0, 2**31, size=8)
    assert (a != b).any()


def test_different_seeds_differ():
    a = derive_rng(1, "x").integers(0, 2**31, size=8)
    b = derive_rng(2, "x").integers(0, 2**31, size=8)
    assert (a != b).any()


def test_spawn_seeds_deterministic_and_distinct():
    s1 = spawn_seeds(7, "trials", 100)
    s2 = spawn_seeds(7, "trials", 100)
    assert s1 == s2
    assert len(set(s1)) == 100
    assert all(0 <= s < 2**63 for s in s1)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(st.integers(0, 2**40), min_size=1, max_size=64)
       .filter(any), seed=st.integers(0, 2**64 - 1))
def test_weighted_index_equals_generator_choice(weights, seed):
    """The cached-CDF draw picks the index ``Generator.choice`` picks and
    leaves the stream where ``choice`` leaves it."""
    w = np.array(weights, dtype=float)
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert weighted_index(rng, weights) == int(
        ref.choice(len(weights), p=w / w.sum()))
    assert rng.integers(2**63) == ref.integers(2**63)


def test_weighted_index_rejects_invalid_weights():
    rng = np.random.default_rng(0)
    for weights in ([0, 0], [1, -1], [1.0, float("nan")]):
        with pytest.raises(ValueError):
            weighted_index(rng, weights)


# ------------------------------------------- batched SeedSequence (tables)

#: Seeds where NumPy's word split changes: 0, one word, the last one-word
#: seed, the first two-word seed, and the top of the 63-bit trial range.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 2)

trial_seeds = st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=24)
tags = st.lists(st.sampled_from(TRIAL_STREAM_TAGS) | st.text(max_size=12),
                min_size=1, max_size=4)


def _seed_sequence_words(seed: int, tag: str) -> np.ndarray:
    return np.random.SeedSequence(
        entropy=seed, spawn_key=(rng_mod._tag_to_entropy(tag),)
    ).generate_state(4, np.uint64)


def _assert_table_equals_derive_rng(seeds, tag_list):
    words = stream_words(seeds, tag_list)
    table = StreamTable(seeds, tag_list)
    for tag in tag_list:
        for row, seed in enumerate(seeds):
            assert words[tag][row].tolist() == _seed_sequence_words(
                seed, tag).tolist(), (seed, tag)
            ours, ref = table(seed, tag), derive_rng(seed, tag)
            assert ours.integers(2**63, size=3).tolist() == ref.integers(
                2**63, size=3).tolist()
            assert ours.random() == ref.random()
            assert ours.integers(7) == ref.integers(7)


@settings(max_examples=200, deadline=None)
@given(seeds=trial_seeds, tag_list=tags)
def test_stream_table_equals_numpy_seed_sequence(seeds, tag_list):
    """The batched pool hash gives ``SeedSequence.generate_state``'s words,
    and a table's Generator draws what ``derive_rng`` draws, from the same
    stream position on: a NumPy change to ``SeedSequence`` fails here by
    name, not only in a digest."""
    _assert_table_equals_derive_rng(seeds, tag_list)


def test_stream_table_covers_every_trial_tag_at_the_word_split_edges():
    _assert_table_equals_derive_rng(list(EDGE_SEEDS), list(TRIAL_STREAM_TAGS))


@settings(max_examples=100, deadline=None)
@given(seeds=trial_seeds,
       short=st.integers(1, 3).flatmap(
           lambda words: st.integers(0, 2**(32 * words) - 1)))
@example(seeds=[1], short=0)
def test_stream_table_hashes_short_spawn_keys(seeds, short):
    """A tag whose entropy has high zero words has a shorter spawn key, so
    its pool is mixed with fewer words than a full 4-word tag's."""
    real = rng_mod._tag_to_entropy
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_mod, "_tag_to_entropy",
                   lambda tag: short if tag == "short" else real(tag))
        _assert_table_equals_derive_rng(seeds + list(EDGE_SEEDS),
                                        ["short", TRIAL_STREAM_TAGS[0]])


def test_every_level_draws_only_listed_trial_streams():
    """Each campaign level's stream table is built from its ``tags``: they
    must all be trial stream tags, which the tests above check."""
    from repro.fi.campaign import CAMPAIGN_LEVELS, CampaignSpec, _level_driver

    drawn = set()
    for level in CAMPAIGN_LEVELS:
        structure = "l2" if level == "uarch" else None
        spec = CampaignSpec(level=level, app="va", structure=structure)
        drawn.update(_level_driver(spec, "va/va_k1").tags)
    assert drawn == set(TRIAL_STREAM_TAGS)


def test_stream_table_refuses_what_it_does_not_hold():
    table = StreamTable([3, 5], TRIAL_STREAM_TAGS[:1])
    with pytest.raises(KeyError, match="seed 4"):
        table(4, TRIAL_STREAM_TAGS[0])
    with pytest.raises(KeyError, match=TRIAL_STREAM_TAGS[1]):
        table(3, TRIAL_STREAM_TAGS[1])
