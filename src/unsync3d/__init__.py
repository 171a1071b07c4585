"""Sparse dynamic 3D reconstruction from unsynchronized 2D video.

Each camera frame contributes one projection ray per visible point; the
solver places every point somewhere along its ray while requiring each
frame's shape to be an affine combination (convex, with a masked support)
of the shapes seen in other frames. The learned combination weights double
as a temporal ordering signal across cameras.
"""

from . import analysis, errors, evaluate, geometry, simplex, solver, synth

__version__ = "0.1.0"

# each submodule's __all__ is the one declaration of its public names; build
# the package's before the star imports rebind ``evaluate`` to the function
__all__ = sorted(
    name
    for module in (analysis, errors, evaluate, geometry, simplex, solver, synth)
    for name in module.__all__
)

from .analysis import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .evaluate import *  # noqa: E402, F403
from .geometry import *  # noqa: E402, F403
from .simplex import *  # noqa: E402, F403
from .solver import *  # noqa: E402, F403
from .synth import *  # noqa: E402, F403
