"""Fixtures shared by several test modules."""

import contextlib
import signal
import time

import numpy as np
import pytest

from hyptrig import auditor, quad, specfun
from hyptrig.auditor import AuditConfig, audit_all

# the config_echo keys full_audit adds to the audit's own
FIXTURE_ECHO_KEYS = ("elapsed_seconds", "integrate_many_calls", "gk_rounds",
                     "gk_kernel_calls", "gk_kernel_chunks",
                     "ts_kernel_calls", "probe_kernel_calls",
                     "hurwitz_zeta_calls", "hurwitz_em_calls", "hurwitz_em_terms")


class Overtime(Exception):
    """A block outlived its time_limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise Overtime inside the block once it has run for `seconds`
    (SIGALRM, so a pure-Python loop that never ends is stopped too)."""
    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def gauss_kronrod():
    """gauss_kronrod(f, a, b, tol): adaptive Gauss-Kronrod alone on finite
    [a, b], for the tests and oracles that need no tanh-sinh and no
    semi-infinite engine."""
    def run(f, a, b, tol):
        job = quad._Job(f)
        with np.errstate(all="ignore"):
            [[(value, error, status)]] = quad._adaptive_gk_many([(job, [(a, b, tol, 0.0)])])
        return quad.QuadResult(value, error, job.used, status)
    return run


@pytest.fixture(scope="session")
def full_audit():
    """The seed-17 audit of every entry at 25 samples, run once per session.

    Its config_echo also carries (FIXTURE_ECHO_KEYS) the run's elapsed
    seconds, its integrate_many calls, the number of _gk_batch rounds it
    made, the kernel calls made inside those rounds, the chunks each
    kernel spans in them (summed over kernels and rounds: a round
    evaluates its panels ordered by kernel, quad._CHUNK at a time), and
    the kernel calls made by the tanh-sinh levels (_tanh_sinh_many) and
    by the decay probes (_points_many), and the closed forms' calls of
    specfun.hurwitz_zeta, of its Euler-Maclaurin sum and that sum's terms.
    """
    rounds, kernel_chunks, integrations = [], [], []
    calls = {"gk": 0, "ts": 0, "probe": 0}
    zeta_calls, em_terms = [], []
    phase = []
    gk_batch, evaluate = quad._gk_batch, quad._evaluate

    def counting(solver, name):
        def run(*args):
            phase.append(name)
            try:
                return solver(*args)
            finally:
                phase.pop()
        return run

    def counting_batch(groups, job, lo, hi):
        rounds.append(1)
        # the chunks from each kernel's first panel to its last, the panels
        # ordered by kernel
        counts = np.unique(groups[0][job], return_counts=True)[1]
        lasts = np.cumsum(counts) - 1
        firsts = lasts - counts + 1
        kernel_chunks.append(int((lasts // quad._CHUNK - firsts // quad._CHUNK + 1).sum()))
        return counting(gk_batch, "gk")(groups, job, lo, hi)

    def counting_evaluate(*args):
        if phase:
            calls[phase[-1]] += 1
        return evaluate(*args)

    integrate_many = auditor.integrate_many
    zeta, em = specfun.hurwitz_zeta, specfun._hurwitz_em
    t0 = time.time()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(auditor, "integrate_many",
                   lambda jobs: integrations.append(1) or integrate_many(jobs))
        mp.setattr(quad, "_gk_batch", counting_batch)
        mp.setattr(quad, "_evaluate", counting_evaluate)
        mp.setitem(quad._SOLVERS, quad._TANH_SINH, counting(quad._tanh_sinh_many, "ts"))
        mp.setitem(quad._SOLVERS, quad._POINTS, counting(quad._points_many, "probe"))
        mp.setattr(specfun, "hurwitz_zeta", lambda s, a: zeta_calls.append(1) or zeta(s, a))
        mp.setattr(specfun, "_hurwitz_em", lambda s, a, n: em_terms.append(n) or em(s, a, n))
        report = audit_all(AuditConfig(samples=25, seed=17, pass_tol=1e-9))
    report.config_echo["elapsed_seconds"] = time.time() - t0
    report.config_echo["integrate_many_calls"] = len(integrations)
    report.config_echo["gk_rounds"] = len(rounds)
    report.config_echo["gk_kernel_calls"] = calls["gk"]
    report.config_echo["gk_kernel_chunks"] = sum(kernel_chunks)
    report.config_echo["ts_kernel_calls"] = calls["ts"]
    report.config_echo["probe_kernel_calls"] = calls["probe"]
    report.config_echo["hurwitz_zeta_calls"] = len(zeta_calls)
    report.config_echo["hurwitz_em_calls"] = len(em_terms)
    report.config_echo["hurwitz_em_terms"] = sum(em_terms)
    return report
