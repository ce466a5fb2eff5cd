"""Value baseline: the numbers behind each verdict of the seed-17 audit.

tests/data/values_seed17.json holds, per record of the seed-17 audit at
25 samples and in report order, the verdict, the closed form, the
quadrature value and its `abs_error_est` (floats as `float.hex`).  The
verdicts must be equal and the closed forms bit-equal.  A quadrature
value may move in its last bits when the engines reorder their
arithmetic, but never by more than the pinned `abs_error_est`, or 4 ulps
of the value where that estimate is smaller.  Regenerate the file with
tests/data/regenerate.py, once `regenerate.py diff` has shown what moved,
and say why in CHANGES.md.

tests/data/points.sha256 pins the sampled points of seeds 0-9 at 25
samples (`regenerate.py points`), so a sampler change shows without an
audit.  tests/data/report_digests.json pins the report bytes of the
seed 1, 2, 3 and 52 audits and of the 200-sample audit of the 4.124.1
pair (`regenerate.py digests`).
"""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

from conftest import FIXTURE_ECHO_KEYS

BASELINE = Path(__file__).parent / "data" / "values_seed17.json"
EPS = sys.float_info.epsilon


def _moved_beyond_bound(value: float, pinned: float, pinned_err: float) -> bool:
    if not math.isfinite(pinned):
        return value.hex() != pinned.hex()
    return not abs(value - pinned) <= max(pinned_err, 4.0 * EPS * abs(pinned))


def test_verdicts_closed_forms_and_values_match_the_baseline(full_audit):
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    echo = full_audit.config_echo
    assert {k: echo[k] for k in baseline["audit"]} == baseline["audit"]
    pinned = baseline["records"]
    assert len(full_audit.records) == len(pinned)
    moved = []
    for i, (r, p) in enumerate(zip(full_audit.records, pinned)):
        assert (r.entry_id, r.convention) == (p["entry_id"], p["convention"]), i
        assert r.verdict == p["verdict"], (i, r.entry_id)
        assert r.closed.hex() == p["closed"], (i, r.entry_id)
        if _moved_beyond_bound(r.numeric.value, float.fromhex(p["value"]),
                               float.fromhex(p["abs_error_est"])):
            moved.append((i, r.entry_id, r.numeric.value.hex(), p["value"]))
    assert not moved, f"values beyond the pinned bound (index, entry, value, pinned): {moved}"


def test_the_bound_catches_a_moved_value():
    pinned, err = 1.0, 1e-12
    assert not _moved_beyond_bound(1.0 + 0.5e-12, pinned, err)
    assert _moved_beyond_bound(1.0 + 2e-12, pinned, err)
    # below the floor of 4 ulps the estimate does not matter
    assert not _moved_beyond_bound(1.0 + 4.0 * EPS, pinned, 0.0)
    assert _moved_beyond_bound(1.0 + 8.0 * EPS, pinned, 0.0)
    # a nan value is pinned as nan
    assert not _moved_beyond_bound(math.nan, math.nan, math.inf)
    assert _moved_beyond_bound(1.0, math.nan, math.inf)


def _regenerate():
    path = BASELINE.parent / "regenerate.py"
    spec = importlib.util.spec_from_file_location("regenerate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regenerate_diff_shows_moves_and_writes_nothing(full_audit, capsys):
    regenerate = _regenerate()
    data = {p: p.read_bytes() for p in BASELINE.parent.iterdir() if p.is_file()}
    echo = {k: v for k, v in full_audit.config_echo.items() if k not in FIXTURE_ECHO_KEYS}
    report = dataclasses.replace(full_audit, config_echo=echo)
    assert regenerate.diff(report) == 0
    out = capsys.readouterr().out
    assert "largest closed move: none" in out
    # three ulps on one closed form
    i, r = next((i, r) for i, r in enumerate(report.records) if r.entry_id == "L1")
    records = list(report.records)
    records[i] = dataclasses.replace(r, closed=r.closed + 3 * math.ulp(r.closed))
    assert regenerate.diff(dataclasses.replace(report, records=records)) == 1
    out = capsys.readouterr().out
    assert f"largest closed move: 3 ulps, record {i} (L1)" in out
    assert "largest value move: none" in out
    l1 = next(line.split() for line in out.splitlines() if line.startswith("L1 "))
    assert l1[1:] == ["25", "0", "1", "0", "0"]
    assert "rose" not in out
    # seven more evaluations on one record, seven fewer on another
    pinned = json.loads((BASELINE.parent / "evaluations_seed17.json")
                        .read_text(encoding="utf-8"))["evaluations"]
    j, h = next((j, r) for j, r in enumerate(report.records) if r.entry_id == "HW1")
    records = list(report.records)
    for k, rec, step in ((i, r, 7), (j, h, -7)):
        records[k] = dataclasses.replace(rec, numeric=dataclasses.replace(
            rec.numeric, evaluations=rec.numeric.evaluations + step))
    assert regenerate.diff(dataclasses.replace(report, records=records)) == 1
    out = capsys.readouterr().out
    assert "largest value move: none" in out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()
             if line.startswith("  ") and "->" in line}
    assert lines["L1"] == [str(pinned["L1"]), "->", str(pinned["L1"] + 7), "rose"]
    assert lines["HW1"] == [str(pinned["HW1"]), "->", str(pinned["HW1"] - 7)]
    assert lines["C1"] == [str(pinned["C1"]), "->", str(pinned["C1"])]
    assert {p: p.read_bytes() for p in BASELINE.parent.iterdir() if p.is_file()} == data


def test_regenerate_verdicts_counts_and_hashes_each_record(full_audit, capsys):
    regenerate = _regenerate()
    data = {p: p.read_bytes() for p in BASELINE.parent.iterdir() if p.is_file()}
    digest = regenerate.verdicts([(17, full_audit)])
    out = capsys.readouterr().out.splitlines()
    lines = {line.split()[0]: line.split()[1:] for line in out}
    for entry_id, summary in full_audit.summary.items():
        assert lines[entry_id] == [f"{k}:{n}" for k, n in summary["counts"].items()]
    assert lines["total"] == ["DIVERGENT:25", "FAIL[printed]:25", "PASS:678"]
    assert out[-1] == f"sha256 {digest}"
    # the PASS records whose error exceeds their estimate, per entry
    under = {}
    for r in full_audit.records:
        if r.verdict == "PASS" and abs(r.numeric.value - r.closed) > r.numeric.abs_error_est:
            under[r.entry_id] = under.get(r.entry_id, 0) + 1
    printed = {line.split()[1]: int(line.split()[2]) for line in out if line.startswith("under ")}
    assert printed == {**under, "total": sum(under.values())}
    # one moved verdict moves the sha256 but not the counts of another seed
    records = list(full_audit.records)
    records[0] = dataclasses.replace(records[0], verdict="FAIL")
    moved = dataclasses.replace(full_audit, records=records)
    assert regenerate.verdicts([(17, moved)]) != digest
    assert regenerate.verdicts([(18, full_audit)]) != digest
    assert {p: p.read_bytes() for p in BASELINE.parent.iterdir() if p.is_file()} == data


def test_sampled_points_match_the_pinned_digest(capsys, monkeypatch):
    pinned = (BASELINE.parent / "points.sha256").read_text(encoding="utf-8").strip()
    regenerate = _regenerate()
    assert regenerate.points() == pinned
    # `regenerate.py diff` prints the pin and exits 1 when the points move
    assert regenerate.diff_points() == 0
    assert capsys.readouterr().out.split() == ["points", "sha256", "pinned", pinned,
                                               "points", "sha256", "current", pinned]
    monkeypatch.setattr(regenerate, "points", lambda: "0" * 64)
    assert regenerate.diff_points() == 1
    assert capsys.readouterr().out.split()[-1] == "0" * 64


def test_other_reports_match_their_pinned_digests():
    pinned = json.loads((BASELINE.parent / "report_digests.json").read_text(encoding="utf-8"))
    assert _regenerate().report_digests() == pinned
