"""Backend selection for the compute kernel.

The kernel is two walks over powers of [[k,-1],[1,0]] modulo N:
order_pm and order_and_reduction.  Each step costs one modular
multiplication, and order_and_reduction tests a candidate border only at
steps where the power's top-left entry is +/-1; _corepy derives both.

The compiled kernel (_corec, built from Cython) is preferred when
present; the pure-Python twin (_corepy) is the fallback and also covers
moduli at or above 2**32, where the compiled kernel's uint64 arithmetic
would overflow.

Set MONOMOD_BACKEND=py or MONOMOD_BACKEND=c to force a backend; forcing
"c" raises at import time if the extension was not built.
"""

from __future__ import annotations

import os

from . import _corepy

_forced = os.environ.get("MONOMOD_BACKEND", "").strip().lower()

if _forced == "py":
    _impl = _corepy
elif _forced == "c":
    from . import _corec as _impl  # type: ignore[no-redef]
elif _forced == "":
    try:
        from . import _corec as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _corepy
else:
    raise RuntimeError(f"MONOMOD_BACKEND must be 'c' or 'py', not {_forced!r}")

BACKEND = "c" if _impl.__name__.endswith("_corec") else "py"

# Compiled arithmetic is exact only below this modulus.
_COMPILED_LIMIT = 2**32


def order_pm(N: int, k: int, cap: int) -> tuple[int, int]:
    if N >= _COMPILED_LIMIT:
        return _corepy.order_pm(N, k, cap)
    return _impl.order_pm(N, k, cap)


def order_and_reduction(
    N: int, k: int, roots: tuple[int, ...], cap: int
) -> tuple[int, int, int, int, int]:
    if N >= _COMPILED_LIMIT:
        return _corepy.order_and_reduction(N, k, roots, cap)
    return _impl.order_and_reduction(N, k, roots, cap)
