"""Pytest configuration: make the shared helpers importable as ``helpers``."""

import os
import sys

import pytest

from repro.chaos import reset_chaos

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _fresh_chaos_controller():
    """The controller parses ``REPRO_CHAOS`` once per process; forget it after
    every test so a spec one test set never leaks into the next."""
    yield
    reset_chaos()
