"""What the paired accuracy panel (tools/panel.py) reads from perfbench.

The panel itself runs whole benchmark workloads and stays out of tier-1;
these checks pin its reading of perfbench's report lines.
"""

import importlib.util
from pathlib import Path

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
