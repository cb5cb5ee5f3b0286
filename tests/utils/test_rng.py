import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, spawn_seeds, weighted_index


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
