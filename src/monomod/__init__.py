"""Minimal monomial solutions of M(a_n)...M(a_1) = +/-Id over Z/NZ:
sizes, irreducibility with witnesses, modulus classification,
closed-form certificates, and range scans.

Each module's __all__ is its public surface; the package re-exports
every one of them.  modring, monomial and solutions, with core and
_numbers beneath them, load with the package: they are all that a
size, report or reduce query runs.  classify, construct and scan load
on first access to them or to one of their names (PEP 562), and
__all__ is computed on first access, so `from monomod import *` loads
them too."""

from .modring import *
from .monomial import *
from .solutions import *

__version__ = "0.1.0"

# The modules whose __all__ the package re-exports, in the order that
# __all__ concatenates them, and those of them that load on first use.
_MODULES = ("classify", "construct", "modring", "monomial", "scan", "solutions")
_LAZY = ("classify", "construct", "scan")


def __getattr__(name: str):
    import importlib
    import importlib.util

    def load(module: str):
        return importlib.import_module(f"{__name__}.{module}")

    if name in _LAZY:
        return load(name)
    if name == "__all__":
        global __all__
        __all__ = [n for module in _MODULES for n in load(module).__all__]
        return __all__
    # `from . import components` asks for a submodule not loaded yet
    # before it imports it; such a name must fail at once, without
    # loading the lazy modules, one of which may be what is importing.
    public = name.isidentifier() and not name.startswith("_")
    if public and importlib.util.find_spec(f"{__name__}.{name}") is None:
        for module in map(load, _LAZY):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
