"""What the paired accuracy panel (tools/panel.py) reads from perfbench.

The panel itself runs whole benchmark workloads and stays out of tier-1;
these checks pin its reading of perfbench's report lines.
"""

import importlib.util
from pathlib import Path

import pytest

PANEL = Path(__file__).resolve().parents[1] / "tools" / "panel.py"

# the lines of one perfbench run, in the layout of perfbench/bench.py's
# report_lines
RUN = """\
# perfbench workload=miss30_hard seed=1 seconds=0 trace=0
env blas_threads: 1
solve scene=0 traced=0 0.912 s converged=False ok
solve scene=1 traced=0 0.871 s converged=True ok
metric solve_s = 0.8915 s (lower is better)
metric median_error_mm = 0.3 mm (lower is better)
metric endpoint_error_mm = 7.9 mm (lower is better)
metric converged_frac = 0.5 frac (higher is better)
metric peak_rss_mb = n/a MB (lower is better)
info admm cap warnings captured: 0
scene 0 corruption_seed=1 median_error=1.16 mm acc30=0.9401 top2=0.7500 \
result_sha256=0a1b2c
scene 1 corruption_seed=1001 median_error=0.256 mm acc30=0.9961 top2=1.0000 \
result_sha256=ffee01
gate FAIL: 1 of 2 solves failed
{"correct": false, "attempted": 2, "failed": 1, "metrics": {}}
"""


def load_panel():
    spec = importlib.util.spec_from_file_location("panel", PANEL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parse_run_reads_scenes_run_metrics_and_failures():
    run = load_panel().parse_run(RUN)
    assert run["scenes"] == [
        {
            "scene": 0,
            "corruption_seed": 1,
            "median_error_mm": 1.16,
            "acc30": 0.9401,
            "top2": 0.75,
            "result_sha256": "0a1b2c",
        },
        {
            "scene": 1,
            "corruption_seed": 1001,
            "median_error_mm": 0.256,
            "acc30": 0.9961,
            "top2": 1.0,
            "result_sha256": "ffee01",
        },
    ]
    assert run["endpoint_error_mm"] == 7.9
    assert run["converged_frac"] == 0.5
    assert run["failed"] == 1


def test_seeds_and_paired_tally():
    panel = load_panel()
    assert panel.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert panel.parse_seeds("5") == [5]
    # lower is better: one win, one loss, one tie, and a missing pair
    pairs = [(1.0, 0.5), (1.0, 2.0), (3.0, 3.0), (None, 1.0)]
    assert panel.tally(pairs, higher_better=False) == (1, 1, 1, 0.0)
    assert panel.tally(pairs, higher_better=True) == (1, 1, 1, 0.0)


def test_parse_sweep_point_reads_its_line():
    panel = load_panel()
    text = (
        "some warning\n"
        "sweep miss value=0.3 acc30=0.962600 median_error_mm=0.574 "
        "converged=7 solves=8 warmup=512\n"
    )
    assert panel.parse_sweep_point(text) == {
        "sweep": "miss",
        "value": 0.3,
        "acc30": 0.9626,
        "median_error_mm": 0.574,
        "converged": 7,
        "solves": 8,
        "warmup": 512,
    }
    # a line without the warm-up passes is not read
    with pytest.raises(ValueError):
        panel.parse_sweep_point(text.replace(" warmup=512", ""))
    with pytest.raises(ValueError):
        panel.parse_sweep_point("sweep miss value=0.3 acc30=0.96\n")


def test_sweeps_are_c08s_and_print_side_by_side():
    panel = load_panel()
    assert panel.SWEEPS["noise"][1] == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert list(panel.SWEEPS["noise"][2]) == [1, 2, 3, 4, 5]
    assert panel.SWEEPS["noise"][3] == {"lambda3": 100.0}
    assert panel.SWEEPS["miss"][1] == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    assert list(panel.SWEEPS["miss"][2]) == list(range(1, 9))
    side = {"acc30": 0.9388, "median_error_mm": 11.3, "converged": 0, "solves": 5,
            "warmup": 500}
    head = side | {"acc30": 0.9411, "median_error_mm": 10.7, "converged": 5,
                   "warmup": 377}
    point = {"sweep": "noise", "value": 5.0, "base": side, "head": head}
    assert panel.sweep_summary([point]) == [
        "noise 5: acc30 base 0.9388 head 0.9411 (+0.0023); median_error_mm "
        "base 11.3 head 10.7; warm-up passes base 500 head 377; converged "
        "base 0/5 head 5/5"
    ]


def test_sweep_line_round_trips():
    # the line a sweep point prints is the line the panel reads
    panel = load_panel()
    line = panel.sweep_line("noise", 2.0, 0.98854, 5.2361, 5, 5, 241)
    assert panel.parse_sweep_point(line) == {
        "sweep": "noise",
        "value": 2.0,
        "acc30": 0.98854,
        "median_error_mm": 5.2361,
        "converged": 5,
        "solves": 5,
        "warmup": 241,
    }
