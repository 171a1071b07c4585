"""What the benchmark harness under perfbench/ reads from the package.

Its tracer (``perfbench/spans.py``) wraps solver layers by module and
attribute name and reads the W-step's info dict; tier-1 does not collect
``perfbench/``, so these checks keep a renamed layer from going unseen.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from unsync3d.simplex import support_mask
from unsync3d.solver import SolverConfig, admm_w_step

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    for module_name, attr, _ in load_spans().TARGETS:
        module = importlib.import_module(f"unsync3d.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_w_step_returns_the_info_the_tracer_reads():
    X = np.random.default_rng(0).standard_normal((6, 8))
    mask = support_mask(np.arange(8) % 2)
    out = admm_w_step(X, mask, SolverConfig())
    assert len(out) == 4
    info = out[3]
    assert isinstance(info, dict)
    assert type(info["iterations"]) is int and info["iterations"] >= 1
    assert type(info["converged"]) is bool
