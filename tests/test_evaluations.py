"""Evaluation-count baseline: the work each entry's quadratures do.

tests/data/evaluations_seed17.json holds, per entry, the sum of
`numeric.evaluations` over the records of the seed-17 audit at 25
samples.  The counts are deterministic, so they are compared exactly
against a bound: an entry whose count grows more than 10% above its
baseline fails.  A deliberate rise is accepted only by regenerating the
file and saying why in CHANGES.md.
"""

import json
from pathlib import Path

BASELINE = Path(__file__).parent / "data" / "evaluations_seed17.json"
GROWTH_BOUND = 1.10


def test_no_entry_exceeds_its_baseline_by_ten_percent(full_audit):
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    echo = full_audit.config_echo
    assert {k: echo[k] for k in baseline["audit"]} == baseline["audit"]
    counts = {}
    for r in full_audit.records:
        counts[r.entry_id] = counts.get(r.entry_id, 0) + r.numeric.evaluations
    assert counts.keys() == baseline["evaluations"].keys()
    grown = {eid: (counts[eid], base) for eid, base in baseline["evaluations"].items()
             if counts[eid] > GROWTH_BOUND * base}
    assert not grown, f"entries above 110% of their baseline (count, baseline): {grown}"
