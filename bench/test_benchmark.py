"""Tests of the benchmark itself: tiny runs of every workload pass their
checks, the printed metric names match BENCHMARK.json, and every check
fails on output it must reject."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hyptrig import catalog, cli, quad, specfun  # noqa: E402

TINY = {
    "audit-sweep": {"samples": 1},
    "bessel-endpoint": {"samples": 3},
    "closed-forms": {"samples": 2, "lemma5_points": 2},
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _names(kind):
    return [(m["name"], m["unit"]) for m in _spec()[kind]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_checks(name, trace, tmp_path):
    w = workloads.make(name, 5, str(tmp_path), **TINY[name])
    result = run.measure(w, 0.0, trace, probe=lambda: 0.25, out_dir=str(tmp_path))
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * w.ops_per_round  # reference + one timed round
    kind = "per_layer" if trace else "end_to_end"
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == _names(kind)
    if trace:
        assert (tmp_path / f"trace-{name}-5.json").exists()
        share = result["metrics"]["trace.attributed_share"]["value"]
        assert 0.5 < share <= 1.0


def test_benchmark_json_lists_the_workloads_and_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert _names("end_to_end") == list(run.END_TO_END)
    assert _names("per_layer") == list(tracing.PER_LAYER)


def test_audit_sweep_seeds_come_from_the_pool(tmp_path):
    for seed in (0, 52, 187, 188, -3, 10**9 + 7):
        seeds = workloads.make("audit-sweep", seed, str(tmp_path)).seeds
        assert len(set(seeds)) == workloads.AUDIT_SEEDS_PER_ROUND
        assert set(seeds) <= set(workloads.AUDIT_SWEEP_POOL)
        assert not set(seeds) & set(workloads.MAX_EFFORT_SEEDS)
    assert workloads.make("bessel-endpoint", 52, str(tmp_path)).seeds == [52, 53, 54]


def test_command_prints_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-forms", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# each check rejects what it must

@pytest.fixture(scope="module")
def report(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "r.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(["audit", "--samples", "2", "--seed", "11", "--entries",
                        "4.119,4.124.1,4.124.2,3.532.1,HW2", "--report", str(path)])
    assert code == 0
    return json.loads(path.read_text())


def _check(payload, code=0):
    return checks.check_report(payload, code, 11, 2, 1e-9,
                               ["4.119", "4.124.1", "4.124.2", "3.532.1", "HW2"], 11)


def _first(payload, entry_id, convention=None):
    return next(r for r in payload["records"]
                if r["entry_id"] == entry_id and r["convention"] == convention)


def test_report_checks_pass_on_a_real_report(report):
    assert _check(report) == (0, [])
    assert checks.check_constants(report, 11) == []
    assert checks.check_bessel_closed(report, 11) == []


def test_flipped_verdict_is_caught(report):
    bad = json.loads(json.dumps(report))
    _first(bad, "4.119")["verdict"] = "FAIL"
    failed, problems = _check(bad)
    assert failed == 0 and problems


def test_perturbed_closed_value_is_caught(report):
    bad = json.loads(json.dumps(report))
    _first(bad, "4.119")["closed"] *= 1.0 + 1e-6
    failed, problems = _check(bad)
    assert failed == 1 and problems  # numbers now say SUSPECT


def test_expected_fail_outcomes(report):
    bad = json.loads(json.dumps(report))
    suspect = _first(bad, "4.124.2")
    suspect["numeric"].update(status="converged", value=suspect["closed"])
    suspect["verdict"] = "PASS"
    printed = _first(bad, "3.532.1", "printed")
    printed["numeric"]["value"] = printed["closed"]
    printed["verdict"] = "PASS"
    assert _check(bad, code=1) == (2, [])
    assert _check(bad, code=0)[1]  # failures must show in the exit status
    _first(bad, "4.119")["expected_fail"] = True
    assert _check(bad, code=1)[1]


def test_exit_status_and_record_count_are_checked(report):
    assert _check(report, code=1)[1]
    short = dict(report, records=report["records"][:-1])
    assert _check(short)[1]


def test_constants_are_checked(report):
    bad = json.loads(json.dumps(report))
    _first(bad, "HW2")["numeric"]["value"] = 16.0 * (1.0 + 1e-6)
    assert checks.check_constants(bad, 11)
    bad["records"] = [r for r in bad["records"] if r["entry_id"] != "HW2"]
    assert checks.check_constants(bad, 11)


def test_bessel_closed_values_are_checked(report):
    bad = json.loads(json.dumps(report))
    _first(bad, "4.124.1")["closed"] *= 1.0 + 1e-6
    assert checks.check_bessel_closed(bad, 11)


def test_repeated_report_must_be_byte_identical(tmp_path):
    w = workloads.make("bessel-endpoint", 2, str(tmp_path), samples=1)
    assert w.reference_round() == (0, [])
    codes = w.run_round()
    with open(w.paths[2], "a", encoding="utf-8") as fh:
        fh.write(" ")
    assert w.check_round(codes)[1]


def test_specfun_values_are_checked_against_mpmath():
    g = specfun.gamma(2.5)
    j = specfun.bessel_j(1.0, 3.0)
    lg = specfun.log_gamma(7.5)
    good = [("gamma", (2.5,), g.value, g.est_rel_error),
            ("bessel_j", (1.0, 3.0), j.value, j.est_rel_error),
            ("log_gamma", (7.5,), lg.value, lg.est_rel_error)]
    assert checks.check_specfun_calls(good) == []
    for fn, args, value, est in good:
        assert checks.check_specfun_calls([(fn, args, value * (1 + 1e-6), est)])
    # an error the estimate covers passes; the same error under-reported fails
    assert checks.check_specfun_calls([("gamma", (2.5,), g.value * (1 + 1e-10), 1e-10)]) == []
    assert checks.check_specfun_calls([("gamma", (2.5,), g.value * (1 + 1e-10), 1e-15)])


def test_identities_and_repeats_are_checked():
    lhs = catalog.lemma5_lhs(0.5, 2.0, 60)
    rhs = catalog.lemma5_rhs(0.5, 2.0)
    assert checks.check_identity_pairs([("lemma5", lhs, rhs)]) == []
    assert checks.check_identity_pairs([("lemma5", lhs * (1 + 1e-6), rhs)])
    ext = catalog.cf_4_124_1_ext(2.0, 1.0, 1.0, 0.0)
    assert checks.check_identity_pairs([("ext", ext, catalog.closed_form(
        "4.124.1", {"p": 2.0, "q": 1.0, "u": 1.0}))]) == []
    assert checks.check_same_values([1.0, 2.0], [1.0, 2.0]) == []
    assert checks.check_same_values([1.0, 2.0], [1.0, 2.0 + 1e-15])


# ---------------------------------------------------------------------------
# tracing

def test_wrappers_cover_imported_names_and_are_removed():
    from hyptrig import auditor
    originals = (quad.euler_transform, specfun.euler_transform, auditor.integrate,
                 catalog.get_entry("4.119").closed_form)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        assert specfun.euler_transform.__wrapped__ is originals[0]
        assert auditor.integrate.__wrapped__ is quad.integrate.__wrapped__
        f, _ = catalog.get_entry("4.124.1").integrand_factory({"p": 1.0, "q": 0.5, "u": 1.0})
        f.eval_upper_dist(np.full(3, 0.5))
    assert (quad.euler_transform, specfun.euler_transform, auditor.integrate,
            catalog.get_entry("4.119").closed_form) == originals
    names = [tracer.names[s[0]] for s in tracer.spans()]
    assert "catalog.entry.factory[4.124.1]" in names
    assert names.count("catalog.entry.eval[4.124.1]") == 1


def test_self_time_excludes_children():
    names = ["quad.integrate_decay", "catalog.entry.eval[X]", "specfun.gamma"]
    spans = [(0, -1, 0.0, 10.0, 100, 1),
             (1, 0, 1.0, 4.0, 50, 1),
             (2, -1, 20.0, 21.5, 0, 1)]
    m = tracing.layer_metrics(names, spans)
    assert m["quad.decay.self_s"] == 7.0
    assert m["quad.decay.evals"] == 100
    assert m["catalog.integrand.s"] == 3.0
    assert m["catalog.integrand.points"] == 50
    assert m["specfun.gamma.self_s"] == 1.5
    assert m["quad.self_s"] + m["catalog.self_s"] + m["specfun.self_s"] == 11.5
