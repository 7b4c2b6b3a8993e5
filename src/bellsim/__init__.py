"""bellsim: small-n quantum simulation and CHSH analysis toolkit.

Two execution engines (dense statevector, stabilizer tableau), a CHSH
S-factor analyzer with scan and maximization, local hidden variable
model fitting over the correlation polytope, protocol drivers
(teleportation, superdense coding, BB84), and a line-oriented circuit
language with a Clifford classifier.

``import bellsim`` loads only :mod:`bellsim.errors`.  The submodules load
on first attribute access (PEP 562), so ``bellsim.dsl`` works as before
but a program that never touches the dense engine or the analyzers never
imports numpy.
"""

import importlib

from .errors import (
    BellSimError,
    ConfigError,
    DimensionError,
    InputError,
    IoError,
    ModelError,
    NonCliffordGate,
    NormalizationError,
    ObservableError,
    ProjectionError,
    QubitIndexError,
    SizeError,
)

__version__ = "0.1.0"

_SUBMODULES = ("chsh", "dsl", "gates", "lhv", "protocols", "stabilizer", "statevector")

__all__ = [
    "BellSimError",
    "ConfigError",
    "DimensionError",
    "InputError",
    "IoError",
    "ModelError",
    "NonCliffordGate",
    "NormalizationError",
    "ObservableError",
    "ProjectionError",
    "QubitIndexError",
    "SizeError",
    "__version__",
    "chsh",
    "dsl",
    "gates",
    "lhv",
    "protocols",
    "stabilizer",
    "statevector",
]


def __getattr__(name: str):
    """Import a submodule on its first access as an attribute of the package."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
