"""Lazy package exports (PEP 562): a package lists the names it exports and
the module each lives in, and a name's module is imported on its first
access, so importing a package loads none of what it does not use (numpy
above all: the planning chain runs without it)."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose ``table``
    maps a module to the names it exports.  A name is imported on first
    access and then kept in the package's namespace."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, list(home)
