"""The paired in-process timer (tools/pairtime.py): its seeds and summary.

The timer itself solves whole benchmark workloads and stays out of tier-1;
these checks pin how it reads ``--seeds`` and how it tallies pairs.
"""

import importlib.util
from pathlib import Path

import pytest

PAIRTIME = Path(__file__).resolve().parents[1] / "tools" / "pairtime.py"


def load_pairtime():
    spec = importlib.util.spec_from_file_location("pairtime", PAIRTIME)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges_are_the_panels():
    pairtime = load_pairtime()
    assert pairtime.parse_seeds("21-30") == list(range(21, 31))
    assert pairtime.parse_seeds("3-4,1,9") == [1, 3, 4, 9]
    with pytest.raises(SystemExit):
        pairtime.main(
            ["--base", ".", "--head", ".", "--workload", "x", "--seeds", "4-2"]
        )


def test_summary_counts_wins_and_the_median_paired_change():
    pairtime = load_pairtime()
    pairs = [(1.0, 0.8), (2.0, 1.0), (1.0, 1.0), (1.0, 1.1), (4.0, 3.0)]
    out = pairtime.summary(pairs)
    assert (out["pairs"], out["wins"], out["losses"], out["ties"]) == (5, 3, 1, 1)
    # paired changes -0.2, -0.5, 0, +0.1, -0.25: the median is -0.2
    assert out["median_change"] == pytest.approx(-0.2)
    assert out["base"]["median"] == 1.0 and out["head"]["median"] == 1.0
    assert out["base"]["q1"] <= out["base"]["median"] <= out["base"]["q3"]
    one = pairtime.summary([(2.0, 1.5)])
    assert one["head"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    assert one["median_change"] == pytest.approx(-0.25)
