"""Shared fixtures for the acceptance suite and the pass/fail summary hook."""

import pytest

# Collected by tests/test_acceptance.py; printed in the terminal summary so
# each criterion shows one pass/fail line even under output capture.
ACCEPTANCE_RESULTS = []


def _record_criterion(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else "")
    ACCEPTANCE_RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def criterion():
    """One pass/fail line per acceptance criterion, echoed in the summary."""
    return _record_criterion


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
