"""Exception hierarchy shared by all bellsim modules, and the guards that raise it.

Every error raised by this package derives from :class:`BellSimError` so
callers can catch one type at the boundary.  Parse errors for the circuit
language live in :mod:`bellsim.dsl` (they carry source locations) but they
subclass :class:`BellSimError` as well.
"""

import math
import numbers


class BellSimError(Exception):
    """Base class for all errors raised by bellsim."""


class NormalizationError(BellSimError):
    """A state (or state factor) is not normalized within tolerance."""


class DimensionError(BellSimError):
    """An array has the wrong shape or two objects have mismatched sizes."""


class QubitIndexError(BellSimError):
    """A qubit index is out of range or repeated where it must be distinct."""


class ProjectionError(BellSimError):
    """Projection onto a measurement outcome of (near) zero probability."""


class ObservableError(BellSimError):
    """An observable matrix is not Hermitian within tolerance."""


class SizeError(BellSimError):
    """A qubit count exceeds the supported limit for the requested engine."""


class NonCliffordGate(BellSimError):
    """A non-Clifford operation was requested from the stabilizer engine."""


class ModelError(BellSimError):
    """A local hidden variable model violates its own invariants."""


class InputError(BellSimError):
    """A caller-supplied value is outside the documented domain."""


class ConfigError(BellSimError):
    """An invalid configuration value (resolution, grid size, engine name)."""


class IoError(BellSimError):
    """A file could not be read or written."""


def is_int(value, lo, hi) -> bool:
    """Whether ``value`` is an int or numpy integer, not ``bool``, in ``lo..hi``."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return lo <= value <= hi
    return False


def finite_real(value, what: str) -> float:
    """``value`` as a float; :class:`InputError` unless a finite ``numbers.Real`` (not complex)."""
    if type(value) is not float:
        if not isinstance(value, numbers.Real):
            raise InputError(f"{what} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            raise InputError(f"{what} must be finite, got an int too large for a float") from None
    if not math.isfinite(value):
        raise InputError(f"{what} must be finite, got {value!r}")
    return value


def pair(value, error: type, what: str) -> tuple:
    """The two items of ``value``; anything else raises ``error``."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise error(f"{what} must be a pair, got {value!r}") from None
    return first, second


def finite_array(value, dtype: type, error: type, what: str):
    """``value`` as an array of finite ``dtype`` numbers (float or complex); else ``error``."""
    import numpy as np
    try:
        arr = np.asarray(value)
    except ValueError:  # nested sequences of unequal lengths
        raise error(f"{what} must be a rectangular array, got ragged {value!r}") from None
    if arr.dtype.kind not in ("biufc" if dtype is complex else "biuf") or not np.isfinite(arr).all():
        raise error(f"{what} must be finite numbers of type {dtype.__name__}, got {value!r}")
    return arr.astype(dtype, copy=False)
