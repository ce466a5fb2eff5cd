"""Output checks, each against an independent computation or a required
property.  Every check returns a list of problems; an empty list passes.

mpmath is the independent oracle; it is imported only by the checks that
need it, after the timed rounds, so it weighs on neither the timings nor
the peak memory.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

PASS, FAIL, SUSPECT, DIVERGENT, SKIPPED = "PASS", "FAIL", "SUSPECT", "DIVERGENT", "SKIPPED"
# the auditor's documented band between SUSPECT and FAIL
SUSPECT_BAND_HIGH = 1e-5
EPS = 2.220446049250313e-16

SUSPECT_ENTRY = "4.124.2"
DUAL_ENTRY = "3.532.1"
CONSTANT_TOL = 1e-8


def derive_verdict(rec: dict, pass_tol: float) -> str:
    """The verdict the record's own numbers imply, ignoring its verdict field."""
    status = rec["numeric"]["status"]
    if status == "suspected_divergent":
        return DIVERGENT
    if status != "converged":
        return SKIPPED
    # the report writes non-finite floats as strings; float() reads both
    value = float(rec["numeric"]["value"])
    closed = float(rec["closed"])
    rel = abs(value - closed) / max(abs(closed), 1e-300)
    if not math.isfinite(rel):
        return FAIL
    if rel <= pass_tol:
        return PASS
    return SUSPECT if rel <= SUSPECT_BAND_HIGH else FAIL


def expected_verdict_ok(rec: dict, verdict: str) -> bool:
    """4.124.2 must be DIVERGENT, printed 3.532.1 must not PASS, the rest PASS."""
    if rec["entry_id"] == SUSPECT_ENTRY:
        return verdict == DIVERGENT
    if rec["entry_id"] == DUAL_ENTRY and rec["convention"] == "printed":
        return verdict != PASS
    return verdict == PASS


def check_report(payload: dict, exit_code: int, seed: int, samples: int,
                 pass_tol: float, entries: List[str],
                 n_records: int) -> Tuple[int, List[str]]:
    """Check one written audit report.

    Returns (failed records, problems).  A record whose re-derived verdict
    is not the expected one is a failed op; inconsistencies between the
    report's fields, its numbers and the exit status are problems.
    """
    problems = []
    cfg = payload["config"]
    if (cfg["seed"], cfg["samples"], cfg["pass_tol"], sorted(cfg["entries"])) != \
            (seed, samples, pass_tol, sorted(entries)):
        problems.append(f"seed {seed}: config echo {cfg} does not match the request")
    records = payload["records"]
    if len(records) != n_records:
        problems.append(f"seed {seed}: {len(records)} records, expected {n_records}")
    failed = 0
    for rec in records:
        verdict = derive_verdict(rec, pass_tol)
        where = f"seed {seed} {rec['entry_id']} {rec['params']} {rec['convention']}"
        if verdict != rec["verdict"]:
            problems.append(f"{where}: report says {rec['verdict']}, numbers say {verdict}")
        should_fail = (rec["entry_id"] == SUSPECT_ENTRY
                       or (rec["entry_id"] == DUAL_ENTRY and rec["convention"] == "printed"))
        if rec["expected_fail"] != should_fail:
            problems.append(f"{where}: expected_fail is {rec['expected_fail']}")
        if not expected_verdict_ok(rec, verdict):
            failed += 1
    # the CLI exits 1 exactly when some record has an unexpected verdict
    if exit_code != (1 if failed else 0):
        problems.append(f"seed {seed}: CLI exit status {exit_code} with {failed} failed records")
    return failed, problems


def check_constants(payload: dict, seed: int) -> List[str]:
    """HW1-HW3 against 1 - pi/4, 16 and omega^2 - 4 from mpmath."""
    import mpmath as mp

    with mp.workdps(30):
        omega = mp.sqrt(mp.pi) / 2 * mp.gamma(mp.mpf(1) / 4) / mp.gamma(mp.mpf(3) / 4)
        targets = {"HW1": float(1 - mp.pi / 4), "HW2": 16.0, "HW3": float(omega ** 2 - 4)}
    problems = []
    seen = set()
    for rec in payload["records"]:
        target = targets.get(rec["entry_id"])
        if target is None:
            continue
        seen.add(rec["entry_id"])
        value = float(rec["numeric"]["value"])
        if not abs(value - target) <= CONSTANT_TOL * abs(target):
            problems.append(f"seed {seed} {rec['entry_id']}: {value!r} vs {target!r}")
    if (set(targets) & set(payload["config"]["entries"])) - seen:
        problems.append(f"seed {seed}: constant entries missing from the report")
    return problems


def bessel_reference(p: float, q: float, u: float) -> Tuple[float, float]:
    """(pi/2) J0(sqrt(p^2-q^2) u), or (pi/2) I0(sqrt(q^2-p^2) u), by mpmath,
    with the absolute error floor a double-precision evaluation needs.

    The ascending series of J0(x) has |terms| summing to I0(x), so near a
    zero of J0 its rounding error is a few ulps of (pi/2) I0(x), not of
    the value itself.
    """
    import mpmath as mp

    with mp.workdps(30):
        p, q, u = mp.mpf(p), mp.mpf(q), mp.mpf(u)
        d = p * p - q * q
        x = mp.sqrt(abs(d)) * u
        ref = mp.pi / 2 * (mp.besselj(0, x) if d >= 0 else mp.besseli(0, x))
        floor = 16 * EPS * mp.pi / 2 * mp.besseli(0, x)
    return float(ref), float(floor)


def check_bessel_closed(payload: dict, seed: int) -> List[str]:
    """Closed values of 4.124.1 against the mpmath Bessel function."""
    problems = []
    for rec in payload["records"]:
        if rec["entry_id"] != "4.124.1":
            continue
        pp = rec["params"]
        ref, floor = bessel_reference(pp["p"], pp["q"], pp["u"])
        closed = float(rec["closed"])
        if not abs(closed - ref) <= 1e-12 * abs(ref) + floor:
            problems.append(f"seed {seed} 4.124.1 {pp}: closed {closed!r} vs mpmath {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# closed-forms workload

def mp_reference(fn: str, args: tuple) -> Optional[float]:
    """The specfun function's value from mpmath, or None for no reference."""
    import mpmath as mp

    with mp.workdps(40):
        a = [mp.mpf(x) for x in args]
        if fn == "gamma":
            v = mp.gamma(a[0])
        elif fn == "log_gamma":
            v = mp.loggamma(a[0])
        elif fn == "hurwitz_zeta":
            v = mp.zeta(a[0], a[1])
        elif fn == "riemann_zeta":
            v = mp.zeta(a[0])
        elif fn == "dirichlet_beta":
            v = mp.dirichlet(a[0], [0, 1, 0, -1])
        elif fn == "dirichlet_eta":
            v = mp.altzeta(a[0])
        elif fn == "bessel_j":
            v = mp.besselj(a[0], a[1])
        elif fn == "theta1_prime0":
            v = mp.jtheta(1, 0, a[0], 1)
        else:
            return None
        return float(v)


# The estimate must bound the error up to this factor, and no bound is
# tighter than ULP_FLOOR ulps: dirichlet_beta reports 1e-15 where its true
# error reaches about 4e-15.
EST_FACTOR = 4.0
ULP_FLOOR = 32


def known_under_report(fn: str, args: tuple) -> bool:
    """Calls whose est_rel_error is known to be too small, left unchecked.

    dirichlet_beta(p) for 1 < p < 1.05 subtracts two Hurwitz zetas that
    grow like 1/(p - 1) and does not count the cancellation: it reports
    1e-15 where the error reaches 64 ulps at p = 1.0021 and 2e5 ulps at
    p = 1 + 1e-6.  Sampled 4.123.6 points land there on some seeds only.
    """
    return fn == "dirichlet_beta" and 1.0 < args[0] < 1.05


def check_specfun_calls(calls: Iterable[Tuple[str, tuple, float, float]]) -> List[str]:
    """Each captured (fn, args, value, est_rel_error) against mpmath.

    log_gamma's est_rel_error is the absolute error of the logarithm; for
    every other function it is relative.
    """
    problems = []
    for fn, args, value, est in calls:
        if known_under_report(fn, args):
            continue
        ref = mp_reference(fn, args)
        if ref is None:
            problems.append(f"{fn}{args}: no mpmath reference")
            continue
        err = abs(value - ref)
        if fn == "log_gamma":
            allowed = max(EST_FACTOR * est, ULP_FLOOR * EPS * max(1.0, abs(ref)))
        else:
            allowed = max(EST_FACTOR * est, ULP_FLOOR * EPS) * abs(ref)
        if not err <= allowed:
            problems.append(f"{fn}{args} = {value!r}, mpmath {ref!r}, "
                            f"est_rel_error {est:.3g}")
    return problems


IDENTITY_TOL = 1e-12


def check_identity_pairs(pairs: Iterable[Tuple[str, float, float]]) -> List[str]:
    """Pairs (label, a, b) of values an identity says are equal."""
    problems = []
    for label, a, b in pairs:
        if not abs(a - b) <= IDENTITY_TOL * max(1.0, abs(b)):
            problems.append(f"{label}: {a!r} vs {b!r}")
    return problems


def check_same_values(reference: List[float], values: List[Optional[float]]) -> List[str]:
    """A timed pass must repeat the checked reference pass bit for bit."""
    problems = []
    for i, (ref, v) in enumerate(zip(reference, values)):
        if v is None or ref is None:
            continue
        if not (v == ref or (math.isnan(v) and math.isnan(ref))):
            problems.append(f"op {i}: {v!r} differs from the checked value {ref!r}")
    if len(values) != len(reference):
        problems.append(f"{len(values)} results for {len(reference)} ops")
    return problems
