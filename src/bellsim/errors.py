"""Exception hierarchy shared by all bellsim modules, the guards that raise it, and the draw.

Every error raised by this package derives from :class:`BellSimError` so
callers can catch one type at the boundary.  Parse errors for the circuit
language live in :mod:`bellsim.dsl` (they carry source locations) but they
subclass :class:`BellSimError` as well.  Every random outcome is one :func:`draw`.
"""

import math
import numbers

# How far from 1 a state's norm may be: statevector and the CLI's numpy-free check of
# --state amplitudes read it here.
NORM_ATOL = 1e-10

# Largest chsh.scan_s resolution: an uncapped grid grows as resolution**2
# (200000 points per axis would need about 300 GiB).  It is kept here, not
# in chsh, so the CLI's help can state it without importing numpy.
SCAN_MAX_RESOLUTION = 1001


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


def draw(rng):
    """``rng.random()``, bellsim's only draw, one number per call; InputError if ``rng``
    cannot make it or the draw is not a real number in [0, 1)."""
    try:
        value = rng.random()
    except (AttributeError, TypeError):
        raise InputError(f"rng must be a random generator with random(), got {type(rng).__name__}") from None
    if type(value) is float and 0.0 <= value < 1.0:  # the common case
        return value
    if not 0 <= finite_real(value, "rng.random()") < 1:
        raise InputError(f"rng.random gave {value!r}, not a real number in [0, 1)")
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
