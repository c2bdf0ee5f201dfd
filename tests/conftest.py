import pytest

from commcycles import polys


@pytest.fixture
def cold_rows(monkeypatch):
    """An empty table of Stirling rows for the test, the process's own table
    back after it; clear the returned dict to empty it again."""
    monkeypatch.setattr(polys, "_ROWS", {})
    return polys._ROWS
