import pytest

from icosahedral import repn


@pytest.fixture
def lift_table(monkeypatch):
    """Serve a given table of keys as repn's lift table."""
    def serve(table):
        monkeypatch.setattr(repn, "_lift_table", lambda: table)

    return serve
