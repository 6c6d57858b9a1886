"""Shared pytest wiring for the test suite.

The acceptance tests register a one-line verdict per numbered criterion;
this hook prints those lines in the terminal summary so the gate is
readable even when individual test output is captured.  Tests that run
the package in a subprocess take its environment from ``package_env``.
``fis`` is the set constructor the test modules share; it lives here and
not in ``oracles``, which imports nothing from the package.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import stampset
from stampset import FiniteIntegerSet

_ACCEPTANCE_LINES: dict[int, str] = {}


def fis(*values: int) -> FiniteIntegerSet:
    return FiniteIntegerSet(tuple(values))


@pytest.fixture(scope="session")
def acceptance_registry() -> dict[int, str]:
    return _ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def package_env() -> dict[str, str]:
    """os.environ with the imported package's parent directory on PYTHONPATH."""
    env = dict(os.environ)
    package_parent = str(Path(stampset.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_parent, env.get("PYTHONPATH"))))
    return env


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for number in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(_ACCEPTANCE_LINES[number])
