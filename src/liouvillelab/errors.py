"""Exception types shared across the laboratory, the two checks that turn a
bad scalar parameter into a :class:`ParameterError` (``_count`` for counts,
indices and seeds, integers only; ``_real`` for real parameters, finite
only), the one check that turns a bad per-vertex field into a
:class:`DataError` (``_field``: one finite real entry per vertex), the one
reader of a file the user names (``_text``) and the one writer of the files
the lab writes (``_write``: ASCII, LF line ends); a file that cannot be
read, decoded or written is a :class:`DataError` naming the path."""

from __future__ import annotations

from pathlib import Path

import numpy as np


class LabError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LabError):
    """A caller-supplied parameter is out of its documented range."""


# The largest radial grid or quadrature size the 1D routines accept; a
# larger one is refused here, not by numpy's allocator with a traceback.
_MAX_GRID = 2**20


def _count(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int in [low, high]; bools, floats and other types are
    refused rather than truncated."""
    if (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and low <= value
        and (high is None or value <= high)
    ):
        return int(value)
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ParameterError(f"{name} must be an integer {bound}, got {value!r}")


def _real(
    name: str, value, low: float = -np.inf, high: float = np.inf, closed: bool = False
) -> float:
    """value as a finite float in (low, high), or in [low, high] when closed;
    bools and other types are refused, and so are NaN, the infinities and
    integers too large for a float."""
    x = np.nan
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if np.isfinite(x) and (low <= x <= high if closed else low < x < high):
        return x
    left = "[" if closed and low > -np.inf else "("
    right = "]" if closed and high < np.inf else ")"
    raise ParameterError(
        f"{name} must be a finite real in {left}{low:g}, {high:g}{right}, got {value!r}"
    )


class DataError(LabError):
    """Input data is malformed: wrong shape, non-finite, or inconsistent."""


def _field(name: str, values, size: int) -> np.ndarray:
    """values as a C-contiguous float64 array of shape (size,); any other
    shape, a bool, complex, object or string dtype, and NaN or infinite
    entries are refused rather than cast or passed on."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise DataError(f"{name} must be real, got dtype {array.dtype}")
    if array.shape != (size,):
        raise DataError(f"{name} must have shape ({size},), got {array.shape}")
    array = np.ascontiguousarray(array, dtype=np.float64)
    if not np.isfinite(array).all():
        raise DataError(f"{name} contains non-finite entries")
    return array


def _text(path, encoding: str) -> str:
    """The text of the file at path; a missing, unreadable or undecodable
    file is refused with a DataError naming the path."""
    try:
        return Path(path).read_text(encoding=encoding)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _write(path, text: str) -> None:
    """Write text to the file at path as ASCII with LF line ends on every
    platform; a path that cannot be written is a DataError naming it."""
    try:
        Path(path).write_text(text, encoding="ascii", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


class MeshQualityError(LabError):
    """A mesh fails a geometric quality requirement (degenerate or inverted
    triangles, angles below the floor)."""


class NumericError(LabError):
    """A numerical procedure lost stability: singular system, overflow,
    quadrature failure, or a damping floor was hit.

    Iterative procedures attach their partial history as ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class ConvergenceError(LabError):
    """An iteration exhausted its budget before meeting its tolerance.

    Carries the best iterate found so the caller can inspect or resume.
    """

    def __init__(self, message: str, best=None, trace=None):
        super().__init__(message)
        self.best = best
        self.trace = trace


class ResolutionError(LabError):
    """The requested quantity is not resolvable on this mesh: a fitting
    window, concentration scale, or sample region falls below (or beyond)
    what the triangulation can represent."""
