"""Time one fresh process's set-up: ``import unsync3d`` and loading scenes.

Usage: python3 perfbench/setup_probe.py <package src dir> <scene.json>...

Prints one JSON object with ``import_s`` and ``load_s`` (seconds).  The
interpreter's own start-up is outside both timings.
"""

import json
import sys
import time


def main(argv):
    src, paths = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import unsync3d.sceneio

    t1 = time.perf_counter()
    for path in paths:
        unsync3d.sceneio.load_scene(path)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))


if __name__ == "__main__":
    main(sys.argv[1:])
