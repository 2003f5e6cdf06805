"""Self-tests of the benchmark's inputs and statistics: seeded inputs
repeat exactly, and the tail-percentile rule."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from perfbench import campaign, common, serving

LAYOUT = {(s, lev): 5 + 3 * lev + s % 4 for s in range(12) for lev in range(2)}
FIELDS = ("a", "b", "c")


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert common.tail_percentile(n) == expected


def test_query_mix_repeats_for_a_seed_and_differs_between_seeds():
    first = serving.query_mix(7, LAYOUT, FIELDS, n=400)
    assert first == serving.query_mix(7, LAYOUT, FIELDS, n=400)
    assert first != serving.query_mix(8, LAYOUT, FIELDS, n=400)


def test_query_mix_selects_existing_patches_in_equal_shares():
    mix = serving.query_mix(3, LAYOUT, FIELDS, n=len(serving.SHAPES) * 10)
    shapes = {"level": 0, "series": 0, "probe": 0}
    for q in mix:
        assert q["fields"][0] in FIELDS
        for step in q["steps"]:
            for patch in q.get("patches", ()):
                assert 0 <= patch < LAYOUT[(step, q["levels"][0])]
        if "patches" not in q:
            shapes["level"] += 1
        elif len(q["steps"]) == serving.SERIES_SPAN:
            shapes["series"] += 1
        else:
            shapes["probe"] += 1
    assert shapes == {"level": 10, "series": 10, "probe": 10}


def _first_steps(seed: int, n: int = 1):
    return [s.hierarchy for s in itertools.islice(campaign.steps(seed), n)]


def _same(a, b) -> bool:
    return all(
        np.array_equal(pa.data, pb.data)
        for la, lb in zip(a, b)
        for f in a.field_names
        for pa, pb in zip(la.patches(f), lb.patches(f))
    )


def test_step_data_repeats_for_a_seed_and_differs_between_seeds():
    (a,) = _first_steps(5)
    (b,) = _first_steps(5)
    (c,) = _first_steps(6)
    assert _same(a, b)
    assert not _same(a, c)
