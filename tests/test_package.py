"""The package namespace: one declaration per public name."""

import importlib

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
