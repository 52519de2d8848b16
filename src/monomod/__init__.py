"""Minimal monomial solutions of M(a_n)...M(a_1) = +/-Id over Z/NZ:
sizes, irreducibility with witnesses, modulus classification,
closed-form certificates, and range scans.

Each module's __all__ is its public surface; the package re-exports
every one of them."""

from .classify import *
from .construct import *
from .modring import *
from .monomial import *
from .scan import *
from .solutions import *

__version__ = "0.1.0"

__all__ = (
    classify.__all__
    + construct.__all__
    + modring.__all__
    + monomial.__all__
    + scan.__all__
    + solutions.__all__
)
