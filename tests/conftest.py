"""Session fixtures shared by the test modules.

Its presence also puts the tests directory on sys.path, so test modules can
share util.py. Readers of solved rows (the CLI, verify) take ``solved_once``,
so each threshold they read is solved once per session; tests whose subject
is the solver itself call the real one.
"""

import time

import pytest

from qsep import criteria


def _kept(solve, kept):
    """criteria.thresholds that solves only the criteria not yet in kept, and keeps them.

    Exact: a criterion's result does not depend on which others share its scan.
    """

    def thresholds(kind, n, request, tol=criteria.DEFAULT_X_TOL):
        row = tuple(request)
        missing = [c for c in row if (kind, n, c, tol) not in kept]
        if missing or not row:
            for result in solve(kind, n, missing, tol):
                kept[kind, n, result.criterion, tol] = result
        return [kept[kind, n, c, tol] for c in row]

    return thresholds


@pytest.fixture(scope="session")
def kept_results():
    """(family, n, criterion, tol) -> ThresholdResult of every solve made through _kept."""
    return {}


@pytest.fixture(scope="session")
def published_tables(kept_results):
    """Each published table, id -> (x* per n, seconds its solve took), its results kept.

    Its solves are real: solved_once, the only other user of kept_results, needs it first.
    """
    tables = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(criteria, "thresholds", _kept(criteria.thresholds, kept_results))
        for table_id in criteria.TABLES:
            start = time.perf_counter()
            tables[table_id] = criteria.family_table(table_id), time.perf_counter() - start
    return tables


@pytest.fixture
def solved_once(monkeypatch, kept_results, published_tables):
    """Serve criteria.thresholds from the session's kept results, solving only new ones."""
    monkeypatch.setattr(criteria, "thresholds", _kept(criteria.thresholds, kept_results))
