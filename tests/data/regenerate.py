"""Rewrite the seed-17 baselines from the current code.

    PYTHONPATH=src python tests/data/regenerate.py [evaluations] [values] [digest]

Runs the audit of every entry at 25 samples, seed 17, pass tolerance
1e-9 (the `full_audit` fixture's configuration) and writes, next to this
script, the baselines named (all three when none is):

- evaluations_seed17.json: per entry, the sum of `numeric.evaluations`
  over its records (checked by tests/test_evaluations.py);
- values_seed17.json: per record, in report order, the verdict, the
  closed form, the quadrature value and its `abs_error_est`, each float
  as `float.hex` (checked by tests/test_values.py);
- report_seed17.sha256: the sha256 of the report file that
  `hyptrig audit --samples 25 --seed 17` writes (checked by
  tests/test_report.py).

A deliberate change to any of them is explained in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

from hyptrig.auditor import AuditConfig, audit_all, report_to_json

DATA = Path(__file__).parent
AUDIT = {"samples": 25, "seed": 17, "pass_tol": 1e-9}


def evaluations(report) -> dict:
    counts = {}
    for r in report.records:
        counts[r.entry_id] = counts.get(r.entry_id, 0) + r.numeric.evaluations
    return {"audit": AUDIT, "evaluations": counts}


def values(report) -> dict:
    records = [{"entry_id": r.entry_id, "convention": r.convention,
                "verdict": r.verdict, "closed": r.closed.hex(),
                "value": r.numeric.value.hex(),
                "abs_error_est": r.numeric.abs_error_est.hex()}
               for r in report.records]
    return {"audit": AUDIT, "records": records}


def digest(report) -> str:
    """sha256 of the report file save_report writes."""
    return hashlib.sha256((report_to_json(report) + "\n").encode("utf-8")).hexdigest()


def main(argv) -> int:
    names = argv or ["evaluations", "values", "digest"]
    if not set(names) <= {"evaluations", "values", "digest"}:
        print(__doc__, file=sys.stderr)
        return 2
    report = audit_all(AuditConfig(**AUDIT))
    if "evaluations" in names:
        (DATA / "evaluations_seed17.json").write_text(
            json.dumps(evaluations(report), indent=2) + "\n", encoding="utf-8")
    if "values" in names:
        # one record per line, so a moved value shows as one changed line
        doc = values(report)
        lines = ",\n".join(json.dumps(rec) for rec in doc["records"])
        (DATA / "values_seed17.json").write_text(
            f'{{"audit": {json.dumps(doc["audit"])}, "records": [\n{lines}\n]}}\n',
            encoding="utf-8")
    if "digest" in names:
        (DATA / "report_seed17.sha256").write_text(digest(report) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
