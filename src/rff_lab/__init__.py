"""Simulation laboratory for radio-frequency-fingerprint feature extraction.

The package models per-subcarrier device fingerprints observed through a
real-Gaussian channel, implements five feature-extraction methods, and
compares Monte-Carlo silhouette scores and classification accuracies against
closed-form (Taylor/delta-method) predictions.

Each library module's ``__all__`` is republished here; the command-line
module `rff_lab.cli` is not imported.  Importing the package runs only
`channel` and `config`, which import no numpy, so a config round trip loads
none.  The first name that misses (``__all__``, ``import *`` and `dir`
among them) imports the six numerical modules and binds every name.
"""

#: the one place the version is written; the CLI and the build read it here
__version__ = "0.1.0"

import importlib as _importlib

from .channel import *
from .config import *

#: the library modules, in `__all__` order
_MODULES = ("analytic", "channel", "classifier", "config", "experiments", "gaussian_moments",
            "signal_model", "silhouette")


def __getattr__(name: str):
    global __all__
    if name in _MODULES or name == "_scratch":  # `from . import` looks before it imports
        return _importlib.import_module(f"{__name__}.{name}")
    if "__all__" not in globals():
        modules = [_importlib.import_module(f"{__name__}.{m}") for m in _MODULES]
        for module in modules:
            globals().update((n, getattr(module, n)) for n in module.__all__)
        __all__ = ["__version__", *(n for module in modules for n in module.__all__)]
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")  # binds every name
    return list(globals())
