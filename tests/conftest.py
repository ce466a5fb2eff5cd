"""Fixtures shared by several test modules."""

import time

import pytest

from hyptrig import quad
from hyptrig.auditor import AuditConfig, audit_all


@pytest.fixture(scope="session")
def full_audit():
    """The seed-17 audit of every entry at 25 samples, run once per session.

    Its config_echo also carries the run's elapsed seconds and the number
    of _gk_batch rounds it made.
    """
    rounds = []
    gk_batch = quad._gk_batch
    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_gk_batch", lambda *a: rounds.append(1) or gk_batch(*a))
        report = audit_all(AuditConfig(samples=25, seed=17, pass_tol=1e-9))
    report.config_echo["elapsed_seconds"] = time.time() - t0
    report.config_echo["gk_rounds"] = len(rounds)
    return report
