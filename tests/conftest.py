import pytest

from icosahedral import repn


@pytest.fixture
def lift_table(monkeypatch):
    """Serve a given table as repn's lift table.

    repn caches the integer keys of its lift table, so the key cache is
    cleared with each table served and again after the test, when the
    real table is back.
    """
    def serve(table):
        monkeypatch.setattr(repn, "_lift_table", lambda: table)
        repn._table_keys.cache_clear()

    yield serve
    repn._table_keys.cache_clear()
