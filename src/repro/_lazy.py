"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists the names each off-path submodule exports; the
submodule is imported when one of those names (or the submodule itself)
is first read, and the value is cached in the package's globals so
later reads are plain dictionary hits.  This keeps ``import
repro.experiments`` down to the campaign stack (DESIGN.md §12.4).

A package whose exported name equals one of its submodule names must
stay eager: importing that submodule rebinds the package attribute to
the module object, shadowing the exported value.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str,
    namespace: Dict[str, object],
    submodules: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Build ``(__getattr__, __dir__)`` for ``package``.

    ``submodules`` maps a submodule's name relative to ``package`` to
    the names the package re-exports from it; ``namespace`` is the
    package's ``globals()``.
    """
    owners = {
        name: module for module, names in submodules.items() for name in names
    }

    def __getattr__(name: str) -> object:
        if name in submodules:
            return importlib.import_module(f"{package}.{name}")
        module = owners.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners) | set(submodules))

    return __getattr__, __dir__
