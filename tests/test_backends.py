"""The compiled and pure kernels must be drop-in replacements for each
other, and the backend switch must honour its environment variable."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from monomod import _corepy, core
from monomod.modring import ResidueRing
from monomod.solutions import bordered_constraint_roots

compiled_available = core.BACKEND == "c"


@pytest.mark.skipif(not compiled_available, reason="compiled kernel not built")
def test_kernels_agree_on_dense_grid():
    from monomod import _corec

    for n in range(2, 90):
        ring = ResidueRing(n)
        cap = n**3 + 1
        for k in range(n):
            assert _corec.order_pm(n, k, cap) == _corepy.order_pm(n, k, cap)
            roots = tuple(
                x for x in bordered_constraint_roots(ring, k) if x not in (0, k)
            )
            assert _corec.order_and_reduction(
                n, k, roots, cap
            ) == _corepy.order_and_reduction(n, k, roots, cap)


def _run_with_env(value: str | None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("MONOMOD_BACKEND", None)
    if value is not None:
        env["MONOMOD_BACKEND"] = value
    return subprocess.run(
        [sys.executable, "-c", "import monomod; print(monomod.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )


def test_backend_env_forces_pure():
    proc = _run_with_env("py")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "py"


@pytest.mark.skipif(not compiled_available, reason="compiled kernel not built")
def test_backend_env_forces_compiled():
    proc = _run_with_env("c")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "c"


def test_backend_env_rejects_unknown_value():
    proc = _run_with_env("fortran")
    assert proc.returncode != 0
    assert "MONOMOD_BACKEND" in proc.stderr


def test_default_backend_is_reported():
    proc = _run_with_env(None)
    assert proc.returncode == 0
    assert proc.stdout.strip() in ("c", "py")
