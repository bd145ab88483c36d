"""Shared fixtures."""

import numpy as np
import pytest

from repro import _ccore


@pytest.fixture
def rng():
    """Deterministic RNG for every test."""
    return np.random.default_rng(12345)


@pytest.fixture
def no_native(monkeypatch):
    """The process as on a host with no C compiler: ``_ccore.get_lib()``
    finds no library, so planning and every loop take their Python twins."""
    monkeypatch.setattr(_ccore, "get_lib", lambda: None)


def pytest_addoption(parser):
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="also run slow (large-matrix) tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--slow"):
        return
    skip = pytest.mark.skip(reason="slow test: pass --slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: large-matrix tests")
