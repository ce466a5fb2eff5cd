"""Auditor tests: sampling determinism and validity, verification verdicts,
ratio diagnosis, and report invariants."""

import dataclasses
import math
import tracemalloc

import pytest

from hyptrig.errors import DomainError, UnknownEntryError
from hyptrig import auditor, catalog, quad
from hyptrig.auditor import (AuditConfig, VerificationRecord, sample_params,
                             verify_point, ratio_diagnose, audit_all,
                             report_to_json, save_report, PASS, FAIL, SUSPECT,
                             DIVERGENT)
from hyptrig.quad import QuadResult


class TestSampleParams:
    def test_determinism(self):
        e = catalog.get_entry("L1")
        a = sample_params(e, 10, 17)
        b = sample_params(e, 10, 17)
        assert a == b
        c = sample_params(e, 10, 18)
        assert a != c

    def test_validity_respected(self):
        e = catalog.get_entry("L1")
        for pp in sample_params(e, 50, 3):
            assert pp["p"] > 1.0
            assert abs(pp["b"]) < pp["a"]

    def test_constant_entry_single_point(self):
        e = catalog.get_entry("HW1")
        assert sample_params(e, 25, 17) == [{}]

    def test_guard_zones(self):
        e = catalog.get_entry("4.123.5")
        for pp in sample_params(e, 40, 5):
            gamma, beta = pp["gamma"], pp["beta"]
            for k in range(int(gamma) + 2):
                for s in (-1.0, 1.0):
                    assert abs(gamma - (2 * k + 1 + s * beta)) >= 0.1

    def test_r_zero_stratum(self):
        e = catalog.get_entry("3.532.1")
        pts = sample_params(e, 10, 17)
        assert all(pts[i]["a"] == pts[i]["b"] for i in (0, 5))

    def test_needs_positive_n(self):
        with pytest.raises(DomainError):
            sample_params(catalog.get_entry("L1"), 0, 17)

    @pytest.mark.parametrize("entry_id", ["3.981.5", "4.124.1", "4.124.1-nu-1"])
    def test_accept_that_takes_nothing_empties_the_region(self, entry_id):
        entry = dataclasses.replace(catalog.get_entry(entry_id),
                                    accept=lambda pp, closed: False)
        with pytest.raises(DomainError, match=f"^{entry_id}: empty feasible region$"):
            sample_params(entry, 1, 17)

    def test_candidates_that_run_out_empty_the_region(self):
        entry = dataclasses.replace(catalog.get_entry("4.122.1"),
                                    sampler=lambda rng, i: iter(()))
        with pytest.raises(DomainError, match="^4.122.1: empty feasible region$"):
            sample_params(entry, 1, 17)

    def test_accept_reads_the_closed_form_the_audit_keeps(self):
        # the guard's closed form is the audit's: computed once per candidate
        entry = catalog.get_entry("4.124.1")
        seen = []

        def accept(pp, closed):
            seen.append((dict(pp), closed))
            return entry.accept(pp, closed)

        spy = dataclasses.replace(entry, accept=accept)
        points = auditor._draw_points(spy, 25, 17)
        assert [pp for pp, _ in points] == sample_params(entry, 25, 17)
        assert len(seen) >= 25
        for pp, closed in seen:
            assert closed.hex() == entry.closed_form(pp).hex()
        for pp, closed in points:
            assert (pp, closed) in seen


class TestVerifyEntry:
    def test_pass(self):
        [rec] = verify_point("4.119", {"p": 1.0, "q": 1.0}, 1e-9)
        assert rec.verdict == PASS
        assert rec.rel_diff <= 1e-9
        assert rec.numeric.status == "converged"

    @pytest.mark.parametrize("entry_id, a", [("4.123.1", 300.0), ("4.123.1-m4", 300.0),
                                             ("4.123.2", 300.0), ("4.123.3", 150.0),
                                             ("4.123.4", 150.0)])
    def test_4123_entries_at_large_a(self, entry_id, a):
        # the limits at pi that the factories once computed with cosh(b pi)
        # overflowed a double from b pi ~ 710, so integrand raised here
        [rec] = verify_point(entry_id, {"a": a}, 1e-9)
        assert rec.verdict == PASS

    def test_suspect_divergent(self):
        [rec] = verify_point("4.124.2", {"a": 1.0, "beta": 0.5, "u": 1.0}, 1e-9)
        assert rec.verdict == DIVERGENT
        assert rec.expected_fail
        assert "transposed" in rec.note

    def test_printed_convention_fails_with_ratio(self):
        derived, rec = verify_point("3.532.1", {"n": 2.0, "a": 1.0, "b": 1.0}, 1e-9)
        assert (derived.convention, rec.convention) == (None, "printed")
        assert rec.verdict == FAIL
        assert rec.expected_fail
        # the table's printed value overstates the integral by exactly
        # Gamma(2n+1)/(2 Gamma(n+1)) = 6 at n = 2
        assert rec.closed / rec.numeric.value == pytest.approx(6.0, rel=1e-10)
        assert rec.ratio_fit == pytest.approx(1.0 / 6.0, rel=1e-10)

    def test_bad_pass_tol_is_rejected(self):
        # 4.119 at p = q = 1 passes at 1e-9; a tolerance outside (0, 1) is
        # no tolerance, so it must not give PASS at 2 nor SUSPECT at 0
        for tol in (2.0, 1.0, 0.0, -0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="pass_tol"):
                verify_point("4.119", {"p": 1.0, "q": 1.0}, tol)
            with pytest.raises(DomainError, match="pass_tol"):
                AuditConfig(pass_tol=tol)

    def test_convention_rejected_elsewhere(self):
        # only a dual_convention entry has a printed record
        records = verify_point("4.119", {"p": 1.0, "q": 1.0}, 1e-9)
        assert [r.convention for r in records] == [None]

    def test_any_entry_with_a_printed_form_gets_printed_records(self, monkeypatch):
        # a printed form twice the closed form: audited, expected to fail
        entry = catalog.get_entry("4.119")
        printed = dataclasses.replace(entry, printed_form=lambda pp: 2.0 * entry.closed_form(pp))
        monkeypatch.setitem(catalog._REGISTRY, "4.119", printed)
        derived, rec = verify_point("4.119", {"p": 1.0, "q": 1.0}, 1e-9)
        assert (derived.verdict, rec.convention, rec.verdict) == (PASS, "printed", FAIL)
        assert rec.expected_fail and not rec.unexpected
        assert rec.closed == 2.0 * derived.closed
        rep = audit_all(AuditConfig(samples=3, seed=17, entries=["4.119"]))
        assert [r.convention for r in rep.records] == [None, "printed"] * 3
        assert all(r.expected_fail for r in rep.records[1::2])
        summary = rep.summary["4.119"]
        assert summary["counts"] == {"PASS": 3, "FAIL[printed]": 3}
        assert (summary["total"], summary["expected_fail_records"]) == (3, 3)
        assert summary["ok"] and rep.overall_ok


class TestUnexpected:
    def test_truth_table(self):
        q = QuadResult(value=1.0, abs_error_est=0.0, evaluations=1, status="converged")
        for verdict in (PASS, FAIL, SUSPECT, DIVERGENT, auditor.SKIPPED):
            for expected_fail in (False, True):
                rec = VerificationRecord(entry_id="X", params={}, numeric=q, closed=1.0,
                                         abs_diff=0.0, rel_diff=0.0, verdict=verdict,
                                         expected_fail=expected_fail)
                # a failure where a PASS is expected, or a PASS where a failure is
                assert rec.unexpected == ((verdict == PASS) == expected_fail)
                # a property, so the report does not carry it
                assert "unexpected" not in auditor._record_json(rec)


class TestRatioDiagnose:
    @staticmethod
    def _rec(ratio, verdict=FAIL):
        q = QuadResult(value=2.0 * ratio, abs_error_est=0.0,
                       evaluations=1, status="converged")
        return VerificationRecord(
            entry_id="X", params={}, numeric=q, closed=2.0,
            abs_diff=abs(q.value - 2.0), rel_diff=abs(q.value - 2.0) / 2.0,
            verdict=verdict, ratio_fit=ratio)

    def test_constant_ratio_found(self):
        recs = [self._rec(2.0), self._rec(2.0 * (1 + 2e-8)), self._rec(2.0)]
        assert ratio_diagnose(recs) == pytest.approx(2.0, rel=1e-7)

    def test_varying_ratio_rejected(self):
        recs = [self._rec(2.0), self._rec(2.5), self._rec(3.0)]
        assert ratio_diagnose(recs) is None

    def test_too_few_records(self):
        assert ratio_diagnose([self._rec(2.0), self._rec(2.0)]) is None


class TestAuditAll:
    def test_small_sweep(self):
        cfg = AuditConfig(samples=2, seed=17,
                          entries=["4.119", "4.124.2", "3.532.1", "HW1"])
        rep = audit_all(cfg)
        assert rep.overall_ok
        assert rep.summary["4.119"]["pass"] == 2
        assert rep.summary["4.124.2"]["counts"] == {"DIVERGENT": 2}
        assert rep.summary["3.532.1"]["counts"]["FAIL[printed]"] == 2
        assert rep.summary["HW1"]["pass"] == 1

    def test_deterministic_bytes(self):
        cfg = AuditConfig(samples=2, seed=4, entries=["4.118", "L3a"])
        assert report_to_json(audit_all(cfg)) == report_to_json(audit_all(cfg))

    def test_unknown_entry_filter(self):
        with pytest.raises(UnknownEntryError):
            audit_all(AuditConfig(entries=["nosuch"]))

    def test_soundness_no_pass_above_tol(self):
        cfg = AuditConfig(samples=3, seed=11,
                          entries=["L1", "4.121.2", "4.123.6", "3.981.5"])
        rep = audit_all(cfg)
        for r in rep.records:
            if r.verdict == PASS:
                assert r.rel_diff <= cfg.pass_tol
                assert r.numeric.status == "converged"

    def test_monotone_tolerance(self):
        # tightening pass_tol on fixed numeric results can only demote PASS
        cfg = AuditConfig(samples=3, seed=11, entries=["4.119", "4.122.1"])
        rep = audit_all(cfg)
        for r in rep.records:
            tighter_pass = r.rel_diff <= cfg.pass_tol / 100.0
            if tighter_pass:
                assert r.verdict == PASS

    def test_non_finite_closed_form_is_a_failed_record(self, monkeypatch):
        # the tolerance of a point whose closed form is nan or inf falls to
        # the 1e-14 floor, which integrate_many accepts: the failure is data
        entry = catalog.get_entry("4.118")
        for bad in (math.nan, math.inf):
            broken = dataclasses.replace(entry, closed_form=lambda pp, bad=bad: bad)
            monkeypatch.setitem(catalog._REGISTRY, "4.118", broken)
            for params in sample_params(broken, 2, 17):
                _, (_, _, tol) = auditor._point(broken, params, 1e-9)
                assert tol == 1e-14
            rep = audit_all(AuditConfig(samples=2, seed=17, entries=["4.118"]))
            assert [r.verdict for r in rep.records] == [FAIL, FAIL]
            assert all(math.isfinite(r.numeric.value) for r in rep.records)
            assert not rep.overall_ok

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_is_the_entrys_closed_form(self, seed):
        # an accepted closed form is handed on, not recomputed: it must be
        # the bits closed_form gives, nan counted equal to nan
        rep = audit_all(AuditConfig(samples=25, seed=seed))
        checked = 0
        for r in rep.records:
            if r.convention is None:
                entry = catalog.get_entry(r.entry_id)
                assert r.closed.hex() == float(entry.closed_form(r.params)).hex(), r
                checked += 1
        assert checked == sum(25 if e.param_names else 1 for e in catalog.list_entries())

    def test_record_order(self):
        cfg = AuditConfig(samples=2, seed=17, entries=["4.118", "4.119"])
        rep = audit_all(cfg)
        assert [r.entry_id for r in rep.records] == ["4.118", "4.118",
                                                     "4.119", "4.119"]

    def test_config_validation(self):
        with pytest.raises(DomainError):
            AuditConfig(samples=0)
        with pytest.raises(DomainError):
            AuditConfig(pass_tol=2.0)


def _per_point(records, pass_tol):
    """The records verified again one point at a time, and the _gk_batch
    rounds that took; each point's records start with convention None."""
    rounds = []
    gk_batch = quad._gk_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_gk_batch", lambda *a: rounds.append(1) or gk_batch(*a))
        per_point = [rec for r in records if r.convention is None
                     for rec in verify_point(r.entry_id, r.params, pass_tol)]
    return per_point, len(rounds)


def _numbers(r):
    n = r.numeric
    return (r.entry_id, r.convention, r.verdict, r.closed.hex(), n.status, n.evaluations,
            n.value.hex(), n.abs_error_est.hex())


class TestAuditBatch:
    """audit_all integrates every point of every entry together; every
    record must equal verify_point run on its own point."""

    @pytest.fixture(scope="class")
    def seed17_per_point(self, full_audit):
        return _per_point(full_audit.records, full_audit.config_echo["pass_tol"])

    def test_batch_equals_per_point_runs(self, full_audit, seed17_per_point):
        records = full_audit.records
        assert len(records) == 728
        per_point, _ = seed17_per_point
        assert [_numbers(r) for r in records] == [_numbers(r) for r in per_point]

    def test_capped_record_equals_its_per_point_run(self):
        # audit seed 52 draws the 4.121.1 point that passes the effort cap
        cfg = AuditConfig(samples=25, seed=52, entries=["4.121.1"])
        records = audit_all(cfg).records
        per_point, _ = _per_point(records, cfg.pass_tol)
        assert [_numbers(r) for r in records] == [_numbers(r) for r in per_point]
        capped = [r.numeric.evaluations for r in records
                  if r.numeric.status == quad.STATUS_MAX_EFFORT]
        assert len(capped) == 1 and capped[0] <= quad.MAX_EVALUATIONS

    def test_dual_convention_records_share_one_integral(self, full_audit):
        dual = [r for r in full_audit.records if r.entry_id == "3.532.1"]
        assert [r.convention for r in dual[:2]] == [None, "printed"]
        for derived, printed in zip(dual[::2], dual[1::2]):
            assert printed.numeric is derived.numeric

    def test_dual_convention_tolerance_comes_from_the_derived_form(self):
        entry = catalog.get_entry("3.532.1")
        smaller_printed = 0
        for params in sample_params(entry, 25, 17):
            closed, (_, _, tol) = auditor._point(entry, params, 1e-9)
            assert tol == max(abs(closed[None]) * 1e-9 / 10.0, 1e-14)
            smaller_printed += abs(closed["printed"]) < abs(closed[None])
        assert smaller_printed > 0

    def test_one_integration_per_audit(self, full_audit):
        assert full_audit.config_echo["integrate_many_calls"] == 1

    def test_batch_takes_under_a_third_of_the_rounds(self, full_audit, seed17_per_point):
        _, per_point = seed17_per_point
        assert full_audit.config_echo["gk_rounds"] < per_point / 3

    def test_one_kernel_call_per_chunk_of_each_round(self, full_audit):
        # the points of an entry share one kernel, so each round calls a
        # kernel at most once per chunk of quad._CHUNK panels it spans, not
        # once per point
        echo = full_audit.config_echo
        assert echo["gk_rounds"] <= echo["gk_kernel_calls"] <= echo["gk_kernel_chunks"]

    def test_tanh_sinh_levels_and_probes_share_their_kernel_calls(self, full_audit):
        # the points of all entries share each tanh-sinh level's and each
        # probe wave's kernel calls; integrated one at a time, the same
        # audit makes 1,149 tanh-sinh and 578 probe integrand calls
        # (3.527.3's lower pieces joined the levels: 43 -> 48 calls)
        echo = full_audit.config_echo
        assert (echo["ts_kernel_calls"], echo["probe_kernel_calls"]) == (48, 18)

    def test_no_straggler_rounds(self, full_audit):
        # the non-integer powers at x = 0 (L1, 3.527.3, 3.532.1) run on
        # tanh-sinh and the oscillatory tails stop by CRVZ, so no entry
        # keeps bisecting or asking for half-periods after the rest: 43
        # rounds when both bisected and Euler-accelerated
        assert full_audit.config_echo["gk_rounds"] <= 16


def _traced_peak(run):
    """The peak of the memory run allocates, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """The seed-17 audit integrates all its points in one call, whose first
    Gauss-Kronrod round holds about 28,000 panels, and its report is about
    420 kB.  (full_audit runs first, so the tanh-sinh levels are cached.)"""

    def test_audit_peak_stays_bounded(self, full_audit):
        # 1.8 MB when each entry was integrated on its own, 4.5 MB now;
        # 5.6 MB if _gk_batch held a whole round's sums and estimates, and
        # 6.0 MB if _adaptive_gk_many also kept its initial partitions
        peak = _traced_peak(lambda: audit_all(AuditConfig(samples=25, seed=17)))
        assert peak < 5.5e6

    def test_report_is_written_record_by_record(self, full_audit, tmp_path):
        # 3.3 MB when the whole text was built first
        peak = _traced_peak(lambda: save_report(full_audit, str(tmp_path / "r.json")))
        assert peak < 0.5e6
