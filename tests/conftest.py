"""Fixtures shared by several test modules."""

import time

import pytest

from hyptrig.auditor import AuditConfig, audit_all


@pytest.fixture(scope="session")
def full_audit():
    """The seed-17 audit of every entry at 25 samples, run once per session."""
    t0 = time.time()
    report = audit_all(AuditConfig(samples=25, seed=17, pass_tol=1e-9))
    report.config_echo["elapsed_seconds"] = time.time() - t0
    return report
