"""Sampling, verification, and report assembly.

The audit draws seeded parameter points from each entry's parameter
schema, integrates the entry's integrand at every point with the engine
its interval picks (every point of every entry in one integrate_many
call, so the whole audit shares its rounds and kernel calls), compares
against the closed form, and classifies the outcome.  Suspect entries
and printed forms are expected to fail and are counted separately; an
unexpected PASS there would indicate an integrand transcription error
and fails the run.  Reports are deterministic functions of the
configuration, and are written in one pass, record by record, with the
layout of json.dumps(..., indent=2).
"""

from __future__ import annotations

import json
import math
import numbers
import random
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, UnknownEntryError
from . import catalog
from .catalog import EntryDescriptor, ParamPoint
from .quad import (QuadResult, integrate, integrate_many, STATUS_CONVERGED,
                   STATUS_DIVERGENT)

PASS = "PASS"
FAIL = "FAIL"
SUSPECT = "SUSPECT"
DIVERGENT = "DIVERGENT"
SKIPPED = "SKIPPED"

SUSPECT_BAND_HIGH = 1e-5


def _check_pass_tol(pass_tol: float) -> None:
    """The one check of a pass tolerance, for the audit and verify_point."""
    if not (0.0 < pass_tol < 1.0):
        raise DomainError("pass_tol must lie in (0, 1)")


def _check_samples(samples) -> None:
    """The one check of a sample count, for the audit and sample_params."""
    if not (isinstance(samples, numbers.Integral) and samples >= 1):
        raise DomainError(f"samples must be an integer >= 1, got {samples!r}")


@dataclass
class AuditConfig:
    samples: int = 25
    seed: int = 17
    pass_tol: float = 1e-9
    entries: Optional[List[str]] = None  # None = every entry

    def __post_init__(self):
        _check_samples(self.samples)
        _check_pass_tol(self.pass_tol)
        if isinstance(self.entries, str):
            raise DomainError(f"entries must be a list of entry ids, not {self.entries!r}")


@dataclass
class VerificationRecord:
    entry_id: str
    params: ParamPoint
    numeric: QuadResult
    closed: float
    abs_diff: float
    rel_diff: float
    verdict: str
    ratio_fit: Optional[float] = None
    convention: Optional[str] = None
    expected_fail: bool = False
    note: str = ""

    @property
    def unexpected(self) -> bool:
        """A failure where a PASS is expected, or a PASS where a failure is."""
        return (self.verdict != PASS) != self.expected_fail


@dataclass
class AuditReport:
    records: List[VerificationRecord]
    summary: Dict[str, Dict]
    config_echo: Dict
    overall_ok: bool


def _draw_points(entry: EntryDescriptor, n: int, seed: int) -> List[Tuple[ParamPoint, Optional[float]]]:
    """sample_params's points, each with the closed form its draw computed, if any."""
    _check_samples(n)
    if not entry.param_names:
        return [({}, None)]
    rng = random.Random(f"{seed}|{entry.id}")
    return [entry.sample(rng, i) for i in range(n)]


def sample_params(entry: EntryDescriptor, n: int, seed: int) -> List[ParamPoint]:
    """n deterministic points from the entry's parameter schema.

    Point i is entry.sample(rng, i): each Param's draw in order, or the first
    candidate of the entry's own sampler (a draw that depends on another parameter,
    or keeps out of a pole band) that its accept, if set, takes on its closed form.
    """
    return [pp for pp, _ in _draw_points(entry, n, seed)]


def _point(entry: EntryDescriptor, params: ParamPoint, pass_tol: float,
           closed: Optional[float] = None) -> Tuple[Dict[Optional[str], float], tuple]:
    """The closed form of a point under each convention, and its job.

    The conventions are None (closed_form, or `closed` where the draw
    computed it) and "printed" (printed_form, if set), each through
    entry.guarded.  One integral serves them all.  Its
    tolerance is pass_tol/10 of the convention-None closed form's magnitude
    (at least 1e-14, and 1e-14 for a closed form that is not finite), so
    the PASS comparison stays a genuinely relative test, even for
    small-valued samples; the printed form is known to be wrong and sets
    nothing.
    """
    if closed is None:
        closed = entry.guarded(entry.closed_form, params)
    forms = {None: closed}
    if entry.printed_form is not None:
        forms["printed"] = entry.guarded(entry.printed_form, params)
    f, spec = entry.guarded(entry.integrand_factory, params)
    tol = abs(closed) * pass_tol / 10.0
    if not 1e-14 <= tol < math.inf:  # nan included
        tol = 1e-14
    return forms, (f, spec, tol)


def _record(entry: EntryDescriptor, params: ParamPoint, closed: float,
            numeric: QuadResult, pass_tol: float,
            convention: Optional[str]) -> VerificationRecord:
    """Classify one quadrature result against one closed form."""
    expected_fail = "suspect" in entry.flags or convention == "printed"

    if numeric.status == STATUS_DIVERGENT:
        verdict, abs_diff, rel_diff = DIVERGENT, math.inf, math.inf
    elif numeric.status != STATUS_CONVERGED:
        verdict = SKIPPED
        abs_diff = abs(numeric.value - closed) if math.isfinite(numeric.value) else math.inf
        rel_diff = abs_diff / max(abs(closed), 1e-300)
    else:
        abs_diff = abs(numeric.value - closed)
        rel_diff = abs_diff / max(abs(closed), 1e-300)
        if rel_diff <= pass_tol:
            verdict = PASS
        elif rel_diff <= SUSPECT_BAND_HIGH:
            verdict = SUSPECT
        else:
            verdict = FAIL

    ratio = None
    if verdict in (FAIL, SUSPECT) and closed != 0.0 and math.isfinite(numeric.value):
        ratio = numeric.value / closed
    return VerificationRecord(
        entry_id=entry.id, params=dict(params), numeric=numeric, closed=closed,
        abs_diff=abs_diff, rel_diff=rel_diff, verdict=verdict, ratio_fit=ratio,
        convention=convention, expected_fail=expected_fail,
        note=entry.provenance_note if expected_fail else "")


def verify_point(entry_id: str, params: ParamPoint,
                 pass_tol: float) -> List[VerificationRecord]:
    """Every convention's record of one parameter point, from one integral.

    The records come in the audit's order: convention None, then
    "printed" for an entry with a printed_form.  They equal the audit's
    records of the same point, but where the closed form is inf or nan
    catalog.closed_form's DomainError is raised (the audit records a FAIL).
    A pass_tol outside (0, 1) raises DomainError, as in AuditConfig.
    """
    _check_pass_tol(pass_tol)
    entry = catalog.get_entry(entry_id)
    # catalog.closed_form validates the point and rejects a value not finite
    forms, job = _point(entry, params, pass_tol, catalog.closed_form(entry_id, params))
    numeric = integrate(*job)
    return [_record(entry, params, value, numeric, pass_tol, convention)
            for convention, value in forms.items()]


def ratio_diagnose(records: Sequence[VerificationRecord]) -> Optional[float]:
    """Constant numeric/closed ratio across failing records, if one exists.

    Needs at least 3 FAIL records; returns the fitted constant when the
    relative spread is below 1e-6, else None.  This is the detector for
    wrong constant prefactors, the most common table-error mode.
    """
    ratios = [r.ratio_fit for r in records
              if r.verdict == FAIL and r.ratio_fit is not None]
    if len(ratios) < 3:
        return None
    mean = sum(ratios) / len(ratios)
    if mean == 0.0:
        return None
    spread = (max(ratios) - min(ratios)) / abs(mean)
    return mean if spread <= 1e-6 else None


def audit_all(config: AuditConfig) -> AuditReport:
    """Full sweep: every selected entry, `samples` points each.

    Per-record failures are data, not exceptions.  Records keep
    (entry order, sample order, convention order), so two runs with the
    same config produce identical reports.  The points of all entries are
    integrated in one integrate_many call, yet each point's records
    equal verify_point on that point.
    """
    wanted = config.entries
    entries = [e for e in catalog.list_entries()
               if wanted is None or e.id in wanted]
    if wanted is not None:
        unknown = set(wanted) - {e.id for e in entries}
        if unknown:
            raise UnknownEntryError(", ".join(sorted(unknown)))

    # every point of every entry first, then one integral per point, all in
    # one integrate_many call, so the whole audit shares its rounds
    points = [(entry, params, *_point(entry, params, config.pass_tol, closed))
              for entry in entries
              for params, closed in _draw_points(entry, config.samples, config.seed)]
    numerics = integrate_many([job for *_, job in points])
    records: List[VerificationRecord] = [
        _record(entry, params, value, numeric, config.pass_tol, convention)
        for (entry, params, closed, _), numeric in zip(points, numerics)
        for convention, value in closed.items()]

    by_entry: Dict[str, List[VerificationRecord]] = {entry.id: [] for entry in entries}
    for r in records:
        by_entry[r.entry_id].append(r)
    summary: Dict[str, Dict] = {}
    for entry in entries:
        recs = by_entry[entry.id]
        normal = [r for r in recs if not r.expected_fail]
        expected = [r for r in recs if r.expected_fail]
        counts = Counter(r.verdict if r.convention is None else f"{r.verdict}[{r.convention}]"
                         for r in recs)
        summary[entry.id] = {
            "flags": sorted(entry.flags),
            "counts": dict(sorted(counts.items())),
            "pass": sum(1 for r in normal if r.verdict == PASS),
            "total": len(normal),
            "expected_fail_records": len(expected),
            "ok": not any(r.unexpected for r in recs),
            "ratio_fit": ratio_diagnose(expected if expected else recs),
        }
    overall_ok = all(s["ok"] for s in summary.values())

    config_echo = {"samples": config.samples, "seed": config.seed,
                   "pass_tol": config.pass_tol,
                   "entries": sorted(e.id for e in entries)}
    return AuditReport(records=records, summary=summary,
                       config_echo=config_echo, overall_ok=overall_ok)


def _plain(obj):
    """obj with each tuple as a list and each float that is nan or infinite
    as the string "nan", "inf" or "-inf", for json.dumps."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _scalar(x, indent: str = "      ") -> str:
    """x as json.dumps(_plain(x), indent=2) writes it at nesting `indent`;
    only a container goes through json.dumps."""
    if type(x) is float and x - x == 0.0:  # finite
        return float.__repr__(x)
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else f'"{_plain(x)}"'
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return json.dumps(_plain(x), indent=2).replace("\n", "\n" + indent)


def _record_json(r: VerificationRecord) -> str:
    """One record as json.dumps(..., indent=2) writes it at nesting "    ",
    from one template.

    The template holds the fields of VerificationRecord and QuadResult in
    field order; _scalar writes each value, and the writer's tests compare
    the report with json.dumps on every record.
    """
    n = r.numeric
    deep = "        "  # the indent of the fields of params and numeric
    params = f",\n{deep}".join([f"{encode_basestring_ascii(k)}: {_scalar(v, deep)}"
                                 for k, v in r.params.items()])
    params = f"{{\n{deep}{params}\n      }}" if params else "{}"
    return (f'{{\n      "entry_id": {_scalar(r.entry_id)},\n'
            f'      "params": {params},\n'
            f'      "numeric": {{\n'
            f'        "value": {_scalar(n.value, deep)},\n'
            f'        "abs_error_est": {_scalar(n.abs_error_est, deep)},\n'
            f'        "evaluations": {_scalar(n.evaluations, deep)},\n'
            f'        "status": {_scalar(n.status, deep)}\n'
            f'      }},\n'
            f'      "closed": {_scalar(r.closed)},\n'
            f'      "abs_diff": {_scalar(r.abs_diff)},\n'
            f'      "rel_diff": {_scalar(r.rel_diff)},\n'
            f'      "verdict": {_scalar(r.verdict)},\n'
            f'      "ratio_fit": {_scalar(r.ratio_fit)},\n'
            f'      "convention": {_scalar(r.convention)},\n'
            f'      "expected_fail": {_scalar(r.expected_fail)},\n'
            f'      "note": {_scalar(r.note)}\n'
            f'    }}')


def _report_chunks(report: AuditReport) -> Iterator[str]:
    """The report's JSON text, as json.dumps(..., indent=2) lays it out: the
    config, overall_ok and summary in one chunk, then one per record."""
    text = json.dumps(_plain({"config": report.config_echo, "overall_ok": report.overall_ok,
                              "summary": report.summary, "records": []}), indent=2)
    if not report.records:
        yield text
        return
    yield text[:-len("]\n}")]  # up to the records' opening "["
    sep = "\n    "
    for r in report.records:
        yield sep + _record_json(r)
        sep = ",\n    "
    yield "\n  ]\n}"


def report_to_json(report: AuditReport) -> str:
    return "".join(_report_chunks(report))


def save_report(report: AuditReport, path: str) -> None:
    """Write the report to path, record by record; DomainError if it cannot."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_report_chunks(report))
            fh.write("\n")
    except OSError as exc:
        raise DomainError(f"cannot write report {path!r}: {exc}") from None


def format_table(report: AuditReport) -> str:
    """Fixed-width per-entry summary for the console."""
    lines = []
    lines.append(f"{'entry':<14s} {'flags':<16s} {'pass':>5s} {'total':>5s} "
                 f"{'verdicts':<38s} {'ok':<3s}")
    lines.append("-" * 86)
    for eid, s in report.summary.items():
        flags = ",".join(s["flags"]) or "-"
        verdicts = " ".join(f"{k}:{v}" for k, v in s["counts"].items())
        lines.append(f"{eid:<14s} {flags:<16s} {s['pass']:>5d} {s['total']:>5d} "
                     f"{verdicts:<38s} {'yes' if s['ok'] else 'NO'}")
    lines.append("-" * 86)
    lines.append(f"overall: {'ok' if report.overall_ok else 'FAILED'}")
    return "\n".join(lines)
