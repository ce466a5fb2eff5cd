"""Report bytes: the digest of the seed-17 audit report, and the writer
checked against json.dumps.

tests/data/report_seed17.sha256 holds the sha256 of the report file that
`hyptrig audit --samples 25 --seed 17` writes.  The session's
`full_audit` is saved and hashed in place of a second audit run, with
the keys the fixture adds to its config_echo removed.  Any change to a
verdict, a number's bits, a field or the layout changes the digest;
regenerate it with tests/data/regenerate.py and say why in CHANGES.md.

The report is written record by record; the text must be what
json.dumps(..., indent=2) makes of the report with each non-finite float
replaced by a string, the report's original writer, kept here as the
oracle.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from conftest import FIXTURE_ECHO_KEYS
from hyptrig.auditor import AuditReport, VerificationRecord, report_to_json, save_report
from hyptrig.quad import QuadResult

PINNED = Path(__file__).parent / "data" / "report_seed17.sha256"


def test_report_bytes_match_the_pinned_digest(full_audit, tmp_path):
    echo = {k: v for k, v in full_audit.config_echo.items() if k not in FIXTURE_ECHO_KEYS}
    path = tmp_path / "audit_report.json"
    save_report(dataclasses.replace(full_audit, config_echo=echo), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED.read_text(encoding="utf-8").strip()


def _json_safe(obj):
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _json_safe(vars(obj))
    return obj


def _oracle(report):
    payload = {
        "config": _json_safe(report.config_echo),
        "overall_ok": report.overall_ok,
        "summary": _json_safe(report.summary),
        "records": [_json_safe(r) for r in report.records],
    }
    return json.dumps(payload, indent=2)


def _synthetic(records):
    summary = {"X": {"flags": [], "counts": {}, "pass": 0, "total": 2,
                     "expected_fail_records": 1, "ok": False, "ratio_fit": None},
               "Y": {"flags": ["suspect", "dual_convention"], "counts": {"FAIL": 1},
                     "pass": 0, "total": 0, "expected_fail_records": 1, "ok": True,
                     "ratio_fit": 0.5}}
    echo = {"samples": 1, "seed": -3, "pass_tol": 1e-9, "entries": ["X", "Y"],
            "span": (0.0, math.inf)}
    return AuditReport(records=records, summary=summary, config_echo=echo,
                       overall_ok=False)


class TestWriter:
    def test_seed17_report_equals_the_oracle(self, full_audit):
        assert report_to_json(full_audit) == _oracle(full_audit)

    def test_edge_values_equal_the_oracle(self):
        records = [
            VerificationRecord(
                entry_id="X", params={"a": np.float64(0.1), "n": 3, "b": -0.0},
                numeric=QuadResult(math.nan, math.inf, 7, "suspected_divergent"),
                closed=-math.inf, abs_diff=math.inf, rel_diff=math.nan,
                verdict="DIVERGENT", ratio_fit=None, convention=None,
                expected_fail=True, note="Gradshteyn–Ryzhik §3.5 \"quoted\"\t"),
            VerificationRecord(
                entry_id="Y", params={}, numeric=QuadResult(1e300, 5e-324, 0, "converged"),
                closed=np.float64(2.0) / 3.0, abs_diff=0.0, rel_diff=1e-17,
                verdict="FAIL", ratio_fit=1.5, convention="printed",
                expected_fail=False, note=""),
        ]
        for report in (_synthetic(records), _synthetic([])):
            assert report_to_json(report) == _oracle(report)

    def test_numpy_floats_and_float_edges_equal_the_oracle(self):
        # the record template writes a scalar itself and hands a container
        # to json.dumps; np.float64 is a float subclass
        records = [
            VerificationRecord(
                entry_id="X", params={"a": -0.0, "b": np.float64(5e-324), "c": math.inf,
                                      "k": 2, "t": (1.5, "s"), "m": {"n": None}},
                numeric=QuadResult(np.float64(-0.0), np.float64(math.inf), 15, "converged"),
                closed=np.float64(5e-324), abs_diff=-0.0, rel_diff=np.float64(math.nan),
                verdict="FAIL", ratio_fit=math.inf, convention="printed",
                expected_fail=True, note="é"),
            VerificationRecord(
                entry_id="Y", params={"a": np.float64(1e308)},
                numeric=QuadResult(np.float64(0.1), 5e-324, 0, "max_effort"),
                closed=-0.0, abs_diff=np.float64(-math.inf), rel_diff=5e-324,
                verdict="SKIPPED", ratio_fit=np.float64(-math.inf), convention=None,
                expected_fail=False, note=""),
        ]
        report = _synthetic(records)
        assert report_to_json(report) == _oracle(report)

    def test_file_is_the_text_and_a_newline(self, tmp_path):
        report = _synthetic([])
        path = tmp_path / "report.json"
        save_report(report, str(path))
        assert path.read_bytes() == (_oracle(report) + "\n").encode("ascii")
