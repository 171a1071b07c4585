"""The package namespace: one declaration per public name, loaded on first use."""

import importlib
import json
import os
import subprocess
import sys

import unsync3d

SUBMODULES = ("analysis", "errors", "evaluate", "geometry", "simplex", "solver", "synth")


def test_package_exports_the_union_of_submodule_exports():
    modules = [importlib.import_module(f"unsync3d.{name}") for name in SUBMODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert unsync3d.__all__ == sorted(names)
    # every name is the submodule's object; unsync3d.evaluate is the
    # function, not the submodule of the same name
    for module in modules:
        for name in module.__all__:
            assert getattr(unsync3d, name) is getattr(module, name), name


def fresh_process(code):
    """What ``code`` prints as JSON, run in a new interpreter on this path."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return json.loads(out.stdout)


def test_imports_load_only_the_modules_they_use(tmp_path):
    # the package loads its submodules on first use, and scene I/O does not
    # load the solver
    from unsync3d import sceneio
    from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion

    scene = generate(
        procedural_motion(3, 12, seed=1), RigSpec(camera_count=4), CorruptionSpec()
    )
    path = tmp_path / "scene.json"
    sceneio.save_scene(path, scene.frames, scene.observations)
    loaded = (
        "sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('unsync3d.'))"
    )
    package, scene_io = fresh_process(
        f"import json, sys, unsync3d; package = {loaded}; "
        f"import unsync3d.sceneio; unsync3d.sceneio.load_scene({str(path)!r}); "
        f"print(json.dumps([package, {loaded}]))"
    )
    assert package == []
    assert [m for m in scene_io if m != "numpy"] == [
        "unsync3d.errors",
        "unsync3d.evaluate",
        "unsync3d.geometry",
        "unsync3d.sceneio",
    ]
    # the submodule evaluate loads first; the package name stays the function
    assert fresh_process(
        "import json, sys, unsync3d.evaluate; print(json.dumps("
        "unsync3d.evaluate is sys.modules['unsync3d.evaluate'].evaluate))"
    )
