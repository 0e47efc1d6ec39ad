"""Shared test configuration.

Every test session gets one fresh artifact-cache directory: generators
stay memoized *within* the session (test files reuse each other's
graphs), while sessions stay hermetic — no state leaks in from previous
runs or from a user-level ``~/.cache/repro``.  Export ``REPRO_CACHE_DIR``
to share a cache across sessions instead.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_artifact_cache(tmp_path_factory):
    from repro import cache

    if os.environ.get("REPRO_CACHE_DIR"):
        configured = cache.configure()  # honor the explicit, shared dir
    else:
        configured = cache.configure(
            root=tmp_path_factory.mktemp("repro-artifacts"))
    yield configured


@pytest.fixture(scope="session")
def shipped_selfcheck():
    """The self-lint report of the shipped tree, computed once per
    session: parsing every module is the slow part, and the tree does
    not change while the tests run."""
    from pathlib import Path

    import repro
    from repro.analysis.selfcheck import selfcheck_paths

    return selfcheck_paths([Path(repro.__file__).parent])


@pytest.fixture()
def memoized_selfcheck(monkeypatch, shipped_selfcheck):
    """Serve ``selfcheck_paths`` over the shipped tree (what
    ``repro lint --self`` checks by default) from the session report;
    any other target is still checked for real."""
    from pathlib import Path

    import repro
    from repro.analysis import selfcheck

    shipped = [Path(repro.__file__).parent]
    real = selfcheck.selfcheck_paths

    def memo(paths, base=None):
        if base is None and [Path(p) for p in paths] == shipped:
            return shipped_selfcheck
        return real(paths, base)

    monkeypatch.setattr(selfcheck, "selfcheck_paths", memo)
