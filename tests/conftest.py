"""Keeps the tests directory importable so test modules can share util.py."""

import time

import pytest

from qsep import criteria


@pytest.fixture(scope="session")
def pp_w_table():
    """Table 1 (pp-w, n = 3..6), solved once per session, and its solve time in seconds."""
    start = time.perf_counter()
    table = criteria.family_table("1")
    return table, time.perf_counter() - start
