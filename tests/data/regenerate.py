"""Rewrite the seed-17 baselines, the other reports' digests and the
sampled-points pin from the current code.

    PYTHONPATH=src python tests/data/regenerate.py [evaluations] [values] [digest] [points] [digests]
    PYTHONPATH=src python tests/data/regenerate.py diff
    PYTHONPATH=src python tests/data/regenerate.py verdicts FIRST-LAST

Runs the audit of every entry at 25 samples, seed 17, pass tolerance
1e-9 (the `full_audit` fixture's configuration) and writes, next to this
script, the baselines named (all five when none is; `points` and
`digests` run no seed-17 audit):

- evaluations_seed17.json: per entry, the sum of `numeric.evaluations`
  over its records (checked by tests/test_evaluations.py);
- values_seed17.json: per record, in report order, the verdict, the
  closed form, the quadrature value and its `abs_error_est`, each float
  as `float.hex` (checked by tests/test_values.py);
- report_seed17.sha256: the sha256 of the report file that
  `hyptrig audit --samples 25 --seed 17` writes (checked by
  tests/test_report.py);
- points.sha256: the sha256 of every entry's `sample_params(entry, 25,
  seed)` for seeds 0-9, each value as `float.hex` (checked by
  tests/test_values.py); it pins the samplers without integrating.
- report_digests.json: the sha256 of the report of each audit in
  DIGESTS, seeds 1, 2, 3 and 52 at 25 samples and the 200-sample audit of
  4.124.1 and 4.124.1-nu-1 (checked by tests/test_values.py); they pin
  points no seed-17 baseline reaches.

A deliberate change to any of them is explained in CHANGES.md.

`diff` writes nothing: it compares the audit with values_seed17.json,
evaluations_seed17.json and the pinned digest and prints, per entry, how
many records moved their verdict or the bits of `closed`, `value` or
`abs_error_est`, each field's largest move in ulps of the pinned value,
each entry's evaluation sum, pinned -> current, marking the entries
whose sum rose, and the pinned and current sha256, then the pinned and
current sha256 of each DIGESTS report and of the sampled points.  It
exits 1 when anything moved, like diff(1), so it checks all five pins.

`verdicts FIRST-LAST` writes nothing either: it audits seeds FIRST to
LAST in turn, at 25 samples and pass tolerance 1e-9, and prints each
entry's verdict counts summed over the seeds (a printed form's verdicts
as FAIL[printed], as the report's summary counts them), the totals, the
under-estimated PASS records (|numeric - closed| > abs_error_est) per
entry with the worst finite ratio of the two, the sweep's evaluations
("evaluations TOTAL largest MAX": the sum of `numeric.evaluations` with
each integral counted once, so a 3.532.1 point, whose two conventions
share one integral, counts once, and the largest count of any record),
then two sha256 lines:
"reports sha256", of the report files of the seeds in turn (the bytes
save_report writes, concatenated), and "sha256", of the verdict
sequence, one line "seed entry verdict" per record in report order.  Two
trees with the same verdict sha256 give every record of the sweep the
same verdict; with the same reports sha256 every report of the sweep is
byte-identical, so one run per tree checks a change that must move no
byte.  For a single seed the reports sha256 is that seed's report
digest (for seed 17, report_seed17.sha256).
"""

import hashlib
import json
import math
import sys
from pathlib import Path

from hyptrig.auditor import PASS, AuditConfig, audit_all, report_to_json, sample_params
from hyptrig.catalog import list_entries

DATA = Path(__file__).parent
AUDIT = {"samples": 25, "seed": 17, "pass_tol": 1e-9}
# the audits pinned by their report's sha256 alone
DIGESTS = [{"samples": 25, "seed": seed} for seed in (1, 2, 3, 52)] + [
    {"samples": 200, "seed": 17, "entries": ["4.124.1", "4.124.1-nu-1"]}]


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


def report_bytes(report) -> bytes:
    """The bytes of the report file save_report writes."""
    return (report_to_json(report) + "\n").encode("utf-8")


def digest(report) -> str:
    """sha256 of the report file save_report writes."""
    return hashlib.sha256(report_bytes(report)).hexdigest()


def points() -> str:
    """sha256 of the sampled points of seeds 0-9, one line per point:
    seed, entry id and each name=float.hex(value) in the point's order."""
    h = hashlib.sha256()
    for seed in range(10):
        for entry in list_entries():
            for pp in sample_params(entry, AUDIT["samples"], seed):
                fields = " ".join(f"{k}={float(v).hex()}" for k, v in pp.items())
                h.update(f"{seed} {entry.id} {fields}\n".encode("ascii"))
    return h.hexdigest()


def report_digests() -> list:
    """One {"audit": config, "sha256": digest} per DIGESTS audit, in order."""
    return [{"audit": audit, "sha256": digest(audit_all(AuditConfig(**audit)))}
            for audit in DIGESTS]


FIELDS = ("closed", "value", "abs_error_est")


def _ulps(old: float, new: float) -> float:
    """|new - old| in ulps of old; inf when either side is not finite."""
    if not (math.isfinite(old) and math.isfinite(new)):
        return 0.0 if old.hex() == new.hex() else math.inf
    return abs(new - old) / math.ulp(old)


def diff(report) -> int:
    """Print what moved against the pinned values and digest."""
    pinned = json.loads((DATA / "values_seed17.json").read_text(encoding="utf-8"))["records"]
    current = values(report)["records"]
    if [(r["entry_id"], r["convention"]) for r in pinned] != \
            [(r["entry_id"], r["convention"]) for r in current]:
        print("the records differ in number, entry or order")
        return 1
    by_entry, worst = {}, {}
    for i, (old, new) in enumerate(zip(pinned, current)):
        counts = by_entry.setdefault(new["entry_id"],
                                     dict.fromkeys(("records", "verdict") + FIELDS, 0))
        counts["records"] += 1
        counts["verdict"] += old["verdict"] != new["verdict"]
        for field in FIELDS:
            if old[field] != new[field]:
                counts[field] += 1
                ulps = _ulps(float.fromhex(old[field]), float.fromhex(new[field]))
                if field not in worst or ulps >= worst[field][0]:
                    worst[field] = (ulps, i, new["entry_id"])
    print(f"{'entry':<14}" + "".join(f"{name:>15}" for name in ("records", "verdict") + FIELDS))
    for entry, counts in by_entry.items():
        print(f"{entry:<14}" + "".join(f"{n:>15}" for n in counts.values()))
    for field in FIELDS:
        print(f"largest {field} move: " + ("none" if field not in worst else
              "{:g} ulps, record {} ({})".format(*worst[field])))
    diff_evaluations(report)
    old_digest = (DATA / "report_seed17.sha256").read_text(encoding="utf-8").strip()
    new_digest = digest(report)
    print(f"sha256 pinned  {old_digest}\nsha256 current {new_digest}")
    verdicts = sum(c["verdict"] for c in by_entry.values())
    # evaluations are in the report, so a moved sum moves the digest too
    return 0 if not worst and not verdicts and old_digest == new_digest else 1


def diff_evaluations(report) -> None:
    """Print each entry's evaluation sum, pinned -> current, with "rose"
    where it grew."""
    pinned = json.loads((DATA / "evaluations_seed17.json").read_text(encoding="utf-8"))
    old, new = pinned["evaluations"], evaluations(report)["evaluations"]
    print("evaluations, pinned -> current:")
    for entry in {**old, **new}:
        a, b = old.get(entry, 0), new.get(entry, 0)
        print(f"  {entry:<14}{a:>12} -> {b:<12}{'rose' if b > a else ''}".rstrip())
    a, b = sum(old.values()), sum(new.values())
    print(f"  {'total':<14}{a:>12} -> {b:<12}{f'{b / a:.4f}x' if a else ''}".rstrip())


def diff_digests() -> int:
    """Print the pinned and current sha256 of each DIGESTS report."""
    pinned = json.loads((DATA / "report_digests.json").read_text(encoding="utf-8"))
    current = report_digests()
    for old, new in zip(pinned, current):
        print(f"{json.dumps(new['audit'])}\n  sha256 pinned  {old['sha256']}"
              f"\n  sha256 current {new['sha256']}")
    return 0 if pinned == current else 1


def diff_points() -> int:
    """Print the pinned and current sha256 of the sampled points."""
    pinned = (DATA / "points.sha256").read_text(encoding="utf-8").strip()
    current = points()
    print(f"points sha256 pinned  {pinned}\npoints sha256 current {current}")
    return 0 if pinned == current else 1


def verdicts(reports) -> str:
    """Print the verdict counts of (seed, report) pairs, per entry and in
    total, the under-estimated PASS records, the evaluations, the sha256 of
    their report files and the sha256 of their verdict sequence; return
    the latter."""
    counts, under, h, files = {}, {}, hashlib.sha256(), hashlib.sha256()
    spent = largest = 0
    for seed, report in reports:
        files.update(report_bytes(report))
        for r in report.records:
            if r.convention is None:  # one record per integral
                spent += r.numeric.evaluations
                largest = max(largest, r.numeric.evaluations)
            key = r.verdict if r.convention is None else f"{r.verdict}[{r.convention}]"
            entry = counts.setdefault(r.entry_id, {})
            entry[key] = entry.get(key, 0) + 1
            h.update(f"{seed} {r.entry_id} {key}\n".encode("ascii"))
            if r.verdict == PASS and r.abs_diff > r.numeric.abs_error_est:
                n, worst = under.get(r.entry_id, (0, 0.0))
                ratio = r.abs_diff / r.numeric.abs_error_est if r.numeric.abs_error_est else 0.0
                under[r.entry_id] = (n + 1, max(worst, ratio))
    total = {}
    for entry, entry_counts in counts.items():
        print(f"{entry:<14}" + " ".join(f"{k}:{n}" for k, n in sorted(entry_counts.items())))
        for k, n in entry_counts.items():
            total[k] = total.get(k, 0) + n
    print(f"{'total':<14}" + " ".join(f"{k}:{n}" for k, n in sorted(total.items())))
    print_under(under)
    print(f"evaluations {spent} largest {largest}")
    print(f"reports sha256 {files.hexdigest()}")
    print(f"sha256 {h.hexdigest()}")
    return h.hexdigest()


def print_under(under: dict) -> None:
    """Print, per entry, the PASS records whose |numeric - closed| exceeds
    their abs_error_est and the worst finite ratio of the two (none when
    every such estimate is 0), one line "under ENTRY COUNT worst RATIO"."""
    for entry, (n, worst) in under.items():
        print(f"under {entry:<14}{n:>6}  worst {f'{worst:.3g}' if worst else 'none'}")
    print(f"under {'total':<14}{sum(n for n, _ in under.values()):>6}")


def main(argv) -> int:
    if argv == ["diff"]:
        return max(diff(audit_all(AuditConfig(**AUDIT))), diff_digests(), diff_points())
    if len(argv) == 2 and argv[0] == "verdicts":
        first, _, last = argv[1].partition("-")
        verdicts((seed, audit_all(AuditConfig(**{**AUDIT, "seed": seed})))
                 for seed in range(int(first), int(last or first) + 1))
        return 0
    names = argv or ["evaluations", "values", "digest", "points", "digests"]
    if not set(names) <= {"evaluations", "values", "digest", "points", "digests"}:
        print(__doc__, file=sys.stderr)
        return 2
    if "points" in names:
        (DATA / "points.sha256").write_text(points() + "\n", encoding="utf-8")
    if "digests" in names:
        (DATA / "report_digests.json").write_text(
            json.dumps(report_digests(), indent=2) + "\n", encoding="utf-8")
    if set(names) <= {"points", "digests"}:
        return 0
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
