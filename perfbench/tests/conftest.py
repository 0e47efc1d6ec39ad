"""Make the simulator sources and the benchmark modules importable, and
give every test its own artifact cache."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    from repro import cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache.configure(root=tmp_path / "cache")
