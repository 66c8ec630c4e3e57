"""Average age of information for a unit-battery sensor on an erasure channel.

Closed-form solvers and evaluators for threshold transmission policies
(one or many sources, with or without erasure feedback) next to a
seeded discrete-event simulator that reproduces the same quantities by
renewal-reward estimation.

Importing the package loads only the analytic layer, which needs no
numpy: the names in analytic.__all__ and model.__all__. The simulator
and stats names in _LAZY are loaded on first access, through the module
__getattr__ of PEP 562.
"""

import importlib

from . import analytic, model
from .analytic import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

# name: the submodule that defines it; importing that submodule loads numpy
_LAZY = {
    "Epochs": "simulator",
    "EventLog": "simulator",
    "make_config": "simulator",
    "run_simulation": "simulator",
    "ValidationRecord": "stats",
    "validate": "stats",
}

__all__ = sorted([*analytic.__all__, *model.__all__, *_LAZY])


def __getattr__(name: str):
    # any other name, submodules included, raises AttributeError, so
    # `from aoi_erasure import simulator` falls back to the submodule import
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_LAZY])
