"""Sparse dynamic 3D reconstruction from unsynchronized 2D video.

Each camera frame contributes one projection ray per visible point; the
solver places every point somewhere along its ray while requiring each
frame's shape to be an affine combination (convex, with a masked support)
of the shapes seen in other frames. The learned combination weights double
as a temporal ordering signal across cameras.

Importing the package loads none of its submodules, and not numpy. A
package attribute resolves on first access: an exported name (``solve``,
``evaluate``) imports the submodule that exports it, and a submodule name
(``sceneio``) imports that module alone. Each submodule's ``__all__`` is the
one declaration of its public names; the package's ``__all__`` is their
sorted union, built when first read.
"""

import importlib as _importlib
import sys as _sys
import types as _types

__version__ = "0.1.0"

# the submodules whose __all__ make up the package's
_EXPORTING = ("analysis", "errors", "evaluate", "geometry", "simplex", "solver", "synth")


class _Package(_types.ModuleType):
    def __getattr__(self, name):
        if name == "__all__":
            value = sorted(
                exported
                for sub in _EXPORTING
                for exported in self._submodule(sub).__all__
            )
        elif name.startswith("_"):
            raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")
        else:
            value = self._resolve(name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name, value):
        # the import system binds each submodule onto its package; a
        # submodule that exports its own name keeps that name for the export
        # (unsync3d.evaluate is the function)
        if (
            isinstance(value, _types.ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in getattr(value, "__all__", ())
        ):
            return
        super().__setattr__(name, value)

    def __dir__(self):
        names = set(vars(self)) | set(self.__all__)
        return sorted(n for n in names if n.startswith("__") or not n.startswith("_"))

    def _submodule(self, sub):
        return _importlib.import_module(f"{self.__name__}.{sub}")

    def _resolve(self, name):
        try:
            module = self._submodule(name)
        except ModuleNotFoundError as exc:
            if exc.name != f"{self.__name__}.{name}":
                raise
        else:
            exported = getattr(module, "__all__", ())
            return getattr(module, name) if name in exported else module
        # search the loaded exporting submodules before importing another
        for sub in sorted(
            _EXPORTING, key=lambda sub: f"{self.__name__}.{sub}" not in _sys.modules
        ):
            module = self._submodule(sub)
            if name in module.__all__:
                return getattr(module, name)
        raise AttributeError(f"module {self.__name__!r} has no attribute {name!r}")


_sys.modules[__name__].__class__ = _Package
