"""The exactness oracle of every fast path (:func:`tests.sim.trials.exactness`)
over its matrix: every app of the suite runs every cell of
:data:`~tests.sim.trials.CELLS` at :data:`SEEDS`.

Each trial takes the campaign's path and must equal full simulation in
outcome, cycles, fault descriptions, per-launch stats and output bytes;
no shortcut may be taken where it must not be, and each must be taken
somewhere, so coverage cannot fall to zero quietly.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest

from repro.kernels import application_names, get_application
from tests.sim.trials import CELLS, PLAN_TIME, SHORTCUTS, exactness

APPS = application_names("all")

#: Seed ``s`` draws over kernel ``s`` (mod the app's kernel count).
SEEDS = (0, 1, 2)


@functools.cache
def engagements(app_name: str) -> Counter:
    """The oracle's tally of the matrix row of ``app_name``."""
    kernels = get_application(app_name).kernel_names
    return exactness(app_name, [(label, kernels[seed % len(kernels)], seed)
                                for label in CELLS for seed in SEEDS])


@pytest.mark.parametrize("app_name", APPS)
def test_every_fast_path_matches_full_simulation(app_name):
    engagements(app_name)


def test_every_shortcut_engages():
    """Each shortcut decides some trial of the matrix; the plan-time exit
    settles some trial of each of its cells and declines others; RF
    faults end at the fire both from done lanes and from dead registers
    (rows already run are not run again)."""
    total = sum((engagements(name) for name in APPS), Counter())
    assert all(total[name] for name in SHORTCUTS), total
    assert all(total[label, "plan-time exit"] for label in PLAN_TIME), total
    assert any(total[label] > total[label, "plan-time exit"]
               for label in PLAN_TIME), total
    assert total["done lane"] and total["dead register"], total
