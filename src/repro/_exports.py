"""Lazy package exports: a package name imports its module on first use.

A package ``__init__`` that only re-exports declares one table, mapping
each module (relative to the package, or absolute) to the names it
supplies, and binds what :func:`lazy` returns::

    from repro import _exports

    __getattr__, __dir__, __all__ = _exports.lazy(__name__, {
        ".machine": ("Machine",),
        ".timing": ("ToteSample", "measure_tote", "tote_from_result"),
    })

``from repro.sim import Machine`` then imports ``repro.sim.machine``
and nothing else (PEP 562 module ``__getattr__``).  The resolved value
is stored in the package namespace, so the next lookup is a plain
attribute read, and anything assigned to the package first wins over
the table.  An unknown name raises :class:`AttributeError`, so
``from package import submodule`` still imports the submodule.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package* from *table*."""
    source = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    # Loading a submodule binds it as a package attribute, so a name that
    # is also its own module's name (``repro.defend.calibrate``, the
    # function) is bound now: otherwise whichever import loaded the
    # module first would leave the module in the name's place.
    for name, module in source.items():
        if module == f".{name}":
            __getattr__(name)
    return __getattr__, __dir__, list(source)
