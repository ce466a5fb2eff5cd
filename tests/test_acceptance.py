"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line.  Criterion 7's
nu = 1/2 sub-case is implemented exactly as stated and fails: at
nu = 1/2 the extension series' n = 0 coefficient contains Gamma(0) and
the corresponding integral has a non-integrable 1/(u-x) endpoint, so the
two sides are a pole and a divergent integral rather than numbers.  The
failure is kept honest instead of being papered over.
"""

import json
import math
import random

import numpy as np
import pytest

from hyptrig import catalog
from hyptrig import specfun as sf
from hyptrig.auditor import PASS, FAIL, DIVERGENT
from hyptrig.catalog import (closed_form, integrand, lemma5_lhs, lemma5_rhs,
                             cf_4_124_1_ext, lemniscatic_period)
from hyptrig.cli import run
from hyptrig.quad import Integrand, IntervalSpec, integrate

PI = math.pi


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {state}" + (f" — {detail}" if detail else ""))


class TestCriterion1FullTable:
    def test_full_table_agreement(self, full_audit):
        normal = [r for r in full_audit.records if not r.expected_fail]
        entries = {r.entry_id for r in normal}
        failures = [r for r in normal if r.verdict != PASS]
        elapsed = full_audit.config_echo["elapsed_seconds"]
        ok = not failures and len(entries) >= 24 and elapsed <= 600.0
        _report("criterion 1", ok,
                f"{len(normal)} records over {len(entries)} non-suspect entries, "
                f"{len(failures)} non-PASS, {elapsed:.1f}s")
        assert len(entries) >= 24
        assert elapsed <= 600.0
        assert not failures, failures[:3]


class TestCriterion2Constants:
    def test_hurwitz_number_integrals(self):
        omega = lemniscatic_period()
        targets = {"HW1": 1.0 - PI / 4.0, "HW2": 16.0, "HW3": omega ** 2 - 4.0}
        worst = 0.0
        for eid, target in targets.items():
            f, spec = integrand(eid, {})
            r = integrate(f, spec, abs(target) * 1e-10)
            rel = abs(r.value - target) / abs(target)
            worst = max(worst, rel)
            assert r.status == "converged"
        _report("criterion 2", worst <= 1e-8, f"worst rel diff {worst:.2e}")
        assert worst <= 1e-8


class TestCriterion3SuspectReproduction:
    def test_4_124_2_always_fails(self, full_audit):
        recs = [r for r in full_audit.records if r.entry_id == "4.124.2"]
        ok = (len(recs) == 25
              and all(r.verdict in (DIVERGENT, FAIL) for r in recs)
              and all("transposed" in r.note for r in recs)
              and full_audit.overall_ok)
        _report("criterion 3", ok,
                f"{len(recs)} samples, verdicts "
                f"{sorted(set(r.verdict for r in recs))}, overall_ok="
                f"{full_audit.overall_ok}")
        assert len(recs) == 25
        for r in recs:
            assert r.verdict in (DIVERGENT, FAIL)
            assert "transposed" in r.note  # the diagnostic hypothesis
        assert full_audit.overall_ok  # suspect failures do not fail the run


class TestCriterion4ConventionAudit:
    def test_derived_passes_printed_fails(self, full_audit):
        derived = [r for r in full_audit.records
                   if r.entry_id == "3.532.1" and r.convention is None]
        printed = [r for r in full_audit.records
                   if r.entry_id == "3.532.1" and r.convention == "printed"]
        assert len(derived) == 25 and len(printed) == 25
        assert all(r.verdict == PASS for r in derived)
        assert all(r.verdict == FAIL for r in printed)
        # r = 0 points: printed/true = Gamma(2n+1)/(2 Gamma(n+1)) exactly
        r0 = [r for r in printed if r.params["a"] == r.params["b"]]
        assert len(r0) >= 5
        worst = 0.0
        for r in r0:
            n = r.params["n"]
            expected = (sf.gamma(2.0 * n + 1.0).value
                        / (2.0 * sf.gamma(n + 1.0).value))
            got = r.closed / r.numeric.value
            worst = max(worst, abs(got - expected) / expected)
            assert got == pytest.approx(expected, rel=1e-8)
            assert r.ratio_fit == pytest.approx(1.0 / expected, rel=1e-8)
        # the designed n = 2 point gives exactly 6
        from hyptrig.auditor import verify_point
        _, rec = verify_point("3.532.1", {"n": 2.0, "a": 1.0, "b": 1.0}, 1e-9)
        assert rec.convention == "printed"
        assert rec.verdict == FAIL
        assert rec.closed / rec.numeric.value == pytest.approx(6.0, rel=1e-10)
        _report("criterion 4", True,
                f"25 derived PASS, 25 printed FAIL, {len(r0)} r=0 points, "
                f"worst ratio mismatch {worst:.2e}, n=2 ratio exactly 6")


class TestCriterion5IdentitySuite:
    def test_lemma5_random_points(self):
        rng = random.Random(2024)
        worst = 0.0
        for _ in range(20):
            a = rng.uniform(0.5, 3.0)
            z = rng.uniform(0.05, 0.8) * a * a
            lhs = lemma5_lhs(z, a, 250)
            rhs = lemma5_rhs(z, a)
            worst = max(worst, abs(lhs - rhs))
            assert abs(lhs - rhs) <= 1e-10
        _report("criterion 5a (series-to-log-Gamma identity)", True,
                f"20 points, worst abs diff {worst:.2e}")

    def test_bessel_addition_identity(self):
        for (z, t) in ((2.0, 0.5), (3.0, -1.0), (1.0, 1.0)):
            total = 0.0
            for k in range(31):
                coef = (-t * (2.0 * z + t) / (2.0 * z)) ** k / math.factorial(k)
                total += coef * sf.bessel_j(float(k), z).value
            assert abs(total - sf.bessel_j(0.0, z + t).value) <= 1e-9
        _report("criterion 5b (Bessel addition identity)", True)

    def test_cross_entry_relations(self):
        for a in (0.5, 1.0, 2.0, 5.0):
            c1 = closed_form("4.123.1", {"a": a})
            c2 = closed_form("4.123.2", {"a": a})
            c3 = closed_form("4.123.3", {"a": a})
            c4 = closed_form("4.123.4", {"a": a})
            assert abs(c1 + c2 - 2.0 * c4) <= 1e-13 * max(1.0, abs(c4))
            assert abs(c2 - c1 - 2.0 * c3) <= 1e-13 * max(1.0, abs(c3))
        for a in (0.4, 1.0, 2.5):
            v = closed_form("4.122.2", {"a": a, "beta": 0.0})
            assert v == pytest.approx(
                0.5 * closed_form("4.119", {"p": 2.0 * a, "q": 1.0}), rel=1e-12)
        for (a, b) in ((1.0, 0.0), (1.0, 0.5), (2.0, 1.3)):
            lhs = closed_form("L1", {"p": 2.0, "a": a, "b": b})
            rhs = closed_form("C1", {"a": a, "b": b})
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
        _report("criterion 5c (cross-entry relations)", True)


class TestCriterion6ThetaEntry:
    def test_end_to_end(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.0):
            f, spec = integrand("4.123.7", {"a": a})
            target = 0.25 * sf.theta1_prime0(math.exp(-2.0 * a)).value
            r = integrate(f, spec, abs(target) * 1e-9)
            rel = abs(r.value - target) / abs(target)
            worst = max(worst, rel)
            assert r.status == "converged"
        _report("criterion 6", worst <= 1e-7, f"worst rel diff {worst:.2e}")
        assert worst <= 1e-7


def _ext_quadrature(p, q, u, nu, tol):
    def ev(x):
        w = (u - x) * (u + x)
        return np.cos(p * x) * np.cosh(q * np.sqrt(w)) * w ** (-(nu + 0.5))

    def ev_upper(d):
        w = d * (2.0 * u - d)
        return np.cos(p * (u - d)) * np.cosh(q * np.sqrt(w)) * w ** (-(nu + 0.5))

    f = Integrand(eval=ev, eval_upper_dist=ev_upper)
    return integrate(f, IntervalSpec(0.0, u), tol)


class TestCriterion7BesselFamily:
    BASE_PQ = ((2.0, 1.0, 1.0), (3.0, 0.5, 1.5), (1.5, 1.2, 2.0))
    CONT_QP = ((1.0, 2.0, 1.0), (0.5, 2.5, 1.2))
    NU_M1 = ((2.0, 1.0, 1.0), (3.0, 0.5, 1.5), (2.5, 1.5, 0.8))

    def test_base_entry(self):
        worst = 0.0
        for (p, q, u) in self.BASE_PQ + self.CONT_QP:
            pp = {"p": p, "q": q, "u": u}
            target = closed_form("4.124.1", pp)
            f, spec = integrand("4.124.1", pp)
            r = integrate(f, spec, abs(target) * 1e-10)
            rel = abs(r.value - target) / abs(target)
            worst = max(worst, rel)
            assert rel <= 1e-9
        _report("criterion 7a (base entry incl. q>p continuation)", True,
                f"worst rel diff {worst:.2e}")

    def test_nu_minus_one_closed_form(self):
        worst = 0.0
        for (p, q, u) in self.NU_M1:
            pp = {"p": p, "q": q, "u": u}
            target = closed_form("4.124.1-nu-1", pp)
            f, spec = integrand("4.124.1-nu-1", pp)
            r = integrate(f, spec, abs(target) * 1e-10)
            rel = abs(r.value - target) / abs(target)
            worst = max(worst, rel)
            assert rel <= 1e-9
        _report("criterion 7b (nu = -1 closed form)", True,
                f"worst rel diff {worst:.2e}")

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_nu_extension_series(self, nu):
        worst = 0.0
        for (p, q, u) in ((2.0, 1.0, 1.0), (1.5, 0.8, 1.2)):
            series = cf_4_124_1_ext(p, q, u, nu)
            r = _ext_quadrature(p, q, u, nu, abs(series) * 1e-9)
            rel = abs(r.value - series) / abs(series)
            worst = max(worst, rel)
            assert rel <= 1e-7
        _report(f"criterion 7c (nu extension, nu={nu})", True,
                f"worst rel diff {worst:.2e}")

    def test_nu_extension_series_at_one_half(self):
        # Stated tolerance: series vs quadrature to 1e-7 at nu = 1/2.  That
        # comparison does not exist: Gamma(1/2 - nu) = Gamma(0) poles the
        # n = 0 coefficient and the integral diverges logarithmically at
        # x = u (integrand ~ cos(pu)/(2u (u-x))).  Implemented as stated
        # and left failing; see the verification notes for the analysis.
        p, q, u = 2.0, 1.0, 1.0
        _report("criterion 7d (nu extension, nu=1/2)", False,
                "series coefficient contains Gamma(0); integral has a "
                "non-integrable endpoint — comparison impossible")
        series = cf_4_124_1_ext(p, q, u, 0.5)  # raises: Gamma(0)
        r = _ext_quadrature(p, q, u, 0.5, abs(series) * 1e-9)
        assert abs(r.value - series) <= 1e-7 * abs(series)


class TestCriterion8Determinism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["audit", "--samples", "2", "--seed", "17"]
        assert run(args + ["--report", str(p1)]) == 0
        assert run(args + ["--report", str(p2)]) == 0
        capsys.readouterr()
        b1, b2 = p1.read_bytes(), p2.read_bytes()
        ok = b1 == b2
        _report("criterion 8", ok, f"{len(b1)} bytes each")
        assert ok
        payload = json.loads(b1)
        assert payload["overall_ok"] is True
