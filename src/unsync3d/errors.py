"""Error taxonomy shared by the library and the command line tool.

Each class carries a short machine-readable category and the exit code the
CLI uses when the error escapes to the top level.  InputError subclasses
ValueError so plain library users can catch validation failures the usual
way.
"""

__all__ = ["UnsyncError", "InputError", "InfeasibleError", "GeometryError"]


class UnsyncError(Exception):
    """Base class for all package errors."""

    category = "error"
    exit_code = 1


class InputError(UnsyncError, ValueError):
    """Malformed or inconsistent input data (shapes, masks, file contents)."""

    category = "input"
    exit_code = 3


class InfeasibleError(UnsyncError):
    """Problem instance violates a structural constraint (empty support, etc.)."""

    category = "infeasible"
    exit_code = 4


class GeometryError(UnsyncError):
    """Degenerate camera geometry (singular intrinsics, zero homogeneous scale)."""

    category = "geometry"
    exit_code = 5
