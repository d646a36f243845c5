"""Shared fixtures and the acceptance-criteria report hook.

Acceptance tests register one line per criterion clause through the
``acceptance`` fixture; the lines are echoed in a dedicated section of the
terminal summary so every clause shows an explicit PASS/FAIL verdict even
when the run aborts early.
"""

import numpy as np
import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance():
    def record(name: str, ok: bool, detail: str) -> None:
        _ACCEPTANCE_LINES.append(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap named module attributes in counters for one test.

    ``count_calls(module, *names)`` returns a dict of call counts keyed by
    name; the wrappers go when the test ends.
    """

    def wrap(module, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            inner = getattr(module, name)

            def counted(*args, _inner=inner, _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return calls

    return wrap
