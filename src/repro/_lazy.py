"""Lazy package exports (PEP 562 module ``__getattr__`` / ``__dir__``).

Every ``repro`` package keeps its public names in ``__all__`` but imports
the submodule behind a name only when that name is first read.  A process
that runs one job therefore loads the modules the job runs, not the
editor, the SVG renderer or the static analyzer that share its packages.
``from package import name``, ``import *`` and ``dir(package)`` behave as
with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for *package*.

    *exports* maps each submodule, relative to *package*, to the names it
    provides; ``"HEADER as CORRELATION_HEADER"`` exports an attribute
    under another name.  A resolved name is bound on the package, so a
    later read is a plain attribute lookup.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for submodule, names in exports.items():
        for spec in names:
            attr, _, alias = spec.partition(" as ")
            where[alias or attr] = (f"{package}.{submodule}", attr)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
