"""CacheStats/LaunchStats counters: the access-resolution invariant,
merge arithmetic, and snapshot round-trips."""

import dataclasses

import pytest

from repro.sim.stats import CacheStats, LaunchStats


def _consistent(accesses=10, hits=6, misses=3, pending_hits=1,
                reservation_fails=2, evictions=4, writebacks=2):
    return CacheStats(accesses=accesses, hits=hits, misses=misses,
                      pending_hits=pending_hits,
                      reservation_fails=reservation_fails,
                      evictions=evictions, writebacks=writebacks)


# ---------------------------------------------------------------- invariant

def test_invariant_holds_for_consistent_stats():
    _consistent().check()  # no assertion error


def test_pending_hits_are_neither_hits_nor_misses():
    """The documented resolution classes are exhaustive and disjoint:
    accesses == hits + misses + pending_hits."""
    stats = _consistent()
    assert stats.accesses == stats.hits + stats.misses + stats.pending_hits
    # and the miss rate divides by *all* accesses, not hits + misses
    assert stats.miss_rate == stats.misses / stats.accesses


def test_snapshot_asserts_on_unbalanced_resolution():
    bad = CacheStats(accesses=5, hits=2, misses=1)  # 2 accesses unresolved
    with pytest.raises(AssertionError, match="invariant violated"):
        bad.snapshot()


def test_snapshot_asserts_on_reservation_fails_exceeding_misses():
    bad = CacheStats(accesses=3, hits=1, misses=2, reservation_fails=3)
    with pytest.raises(AssertionError, match="reservation_fails"):
        bad.snapshot()


def test_miss_rate_of_empty_stats_is_zero():
    assert CacheStats().miss_rate == 0.0
    assert CacheStats().snapshot()["miss_rate"] == 0.0


# -------------------------------------------------------------------- merge

def test_merge_sums_every_counter_and_preserves_invariant():
    a = _consistent()
    b = _consistent(accesses=7, hits=1, misses=4, pending_hits=2,
                    reservation_fails=1, evictions=0, writebacks=5)
    a.merge(b)
    assert a.accesses == 17
    assert a.hits == 7
    assert a.misses == 7
    assert a.pending_hits == 3
    assert a.reservation_fails == 3
    assert a.evictions == 4
    assert a.writebacks == 7
    a.check()  # summing consistent operands stays consistent


def test_merge_snapshot_round_trip():
    """snapshot(merged) == counter-wise sum of the operand snapshots."""
    a, b = _consistent(), _consistent(accesses=20, hits=10, misses=8,
                                      pending_hits=2)
    snap_a, snap_b = a.snapshot(), b.snapshot()
    a.merge(b)
    merged = a.snapshot()
    for name in snap_a:
        if name == "miss_rate":
            continue  # a ratio, not a summable counter
        assert merged[name] == snap_a[name] + snap_b[name]
    assert merged["miss_rate"] == a.misses / a.accesses


# ------------------------------------------------------------- LaunchStats

def test_launch_stats_snapshot_flattens_cache_levels():
    ls = LaunchStats(cycles=100, warp_instructions=40)
    ls.l1d.accesses = ls.l1d.hits = 4
    snap = ls.snapshot()
    assert snap["cycles"] == 100
    assert snap["l1d_hits"] == 4
    assert snap["l1d_miss_rate"] == 0.0
    assert "l2_accesses" in snap and "l1t_accesses" in snap
    assert "occupancy" not in snap  # only with a config


def test_launch_stats_snapshot_checks_nested_cache_invariants():
    ls = LaunchStats()
    ls.l2.accesses = 3  # unresolved: no hits/misses/pending recorded
    with pytest.raises(AssertionError, match="invariant violated"):
        ls.snapshot()


def test_launch_stats_copy_is_complete_and_independent():
    """Every field, nested ones included, is copied; the copy shares no
    mutable instance with the original. A nested field that ``copy()``
    misses fails here."""
    values = iter(range(1, 10_000))
    original = LaunchStats()
    for f in dataclasses.fields(LaunchStats):
        value = getattr(original, f.name)
        if dataclasses.is_dataclass(value):
            for sub in dataclasses.fields(value):
                setattr(value, sub.name, next(values))
        else:
            setattr(original, f.name, next(values))
    before = dataclasses.asdict(original)

    copy = original.copy()
    assert copy == original
    for f in dataclasses.fields(LaunchStats):
        value = getattr(copy, f.name)
        if dataclasses.is_dataclass(value):
            assert value is not getattr(original, f.name), f.name
            for sub in dataclasses.fields(value):
                setattr(value, sub.name, getattr(value, sub.name) + 10_000)
        else:
            setattr(copy, f.name, value + 10_000)
    assert dataclasses.asdict(original) == before
