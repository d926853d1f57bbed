"""Fixtures shared by the test modules."""

import pytest

from sqkdsim import protocol


@pytest.fixture
def many_cpus(monkeypatch):
    """``protocol.run`` caps its jobs at the CPUs the process may use; a
    test of 3 or 7 jobs lifts the cap, so that it starts that many threads
    on any machine."""
    monkeypatch.setattr(protocol, "_cpus", lambda: 8)
