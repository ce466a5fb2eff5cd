"""Fixtures shared by several test modules."""

import time

import pytest

from hyptrig import quad
from hyptrig.auditor import AuditConfig, audit_all

# the config_echo keys full_audit adds to the audit's own
FIXTURE_ECHO_KEYS = ("elapsed_seconds", "gk_rounds", "gk_kernel_calls", "gk_chunks")


@pytest.fixture(scope="session")
def full_audit():
    """The seed-17 audit of every entry at 25 samples, run once per session.

    Its config_echo also carries (FIXTURE_ECHO_KEYS) the run's elapsed
    seconds, the number of _gk_batch rounds it made, the kernel calls
    made inside those rounds, and the rounds' chunks: ceil(panels /
    quad._CHUNK) per round.
    """
    rounds, chunks, calls = [], [], []
    in_round = []
    gk_batch, evaluate = quad._gk_batch, quad._evaluate

    def counting_batch(pes, groups, job, lo, hi):
        rounds.append(1)
        chunks.append(-(-len(lo) // quad._CHUNK))
        in_round.append(1)
        try:
            return gk_batch(pes, groups, job, lo, hi)
        finally:
            in_round.pop()

    def counting_evaluate(*args):
        if in_round:
            calls.append(1)
        return evaluate(*args)

    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_gk_batch", counting_batch)
        mp.setattr(quad, "_evaluate", counting_evaluate)
        report = audit_all(AuditConfig(samples=25, seed=17, pass_tol=1e-9))
    report.config_echo["elapsed_seconds"] = time.time() - t0
    report.config_echo["gk_rounds"] = len(rounds)
    report.config_echo["gk_kernel_calls"] = len(calls)
    report.config_echo["gk_chunks"] = sum(chunks)
    return report
