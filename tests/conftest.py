import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_acceptance_results: dict[int, tuple[bool, str]] = {}


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """Every test, and every earpipe process a test starts, keeps parsed
    sessions in one temporary cache, never in the user's."""
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("session_cache")
        mp.setenv("EARPIPE_CACHE_DIR", str(path))
        yield path


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, title): end-to-end acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, title = marker.args
    if rep.when == "call":
        _acceptance_results[num] = (rep.passed, title)
    elif rep.when == "setup" and not rep.passed:
        _acceptance_results[num] = (False, title)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        passed, title = _acceptance_results[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {num:>2}. {title}")
