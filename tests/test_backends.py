"""The kernel reports the backend that benchmark records are keyed by."""

from __future__ import annotations

from monomod import core


def test_default_backend_is_reported():
    assert core.BACKEND == "py"
