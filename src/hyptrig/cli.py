"""Command-line front end.

    hyptrig list
    hyptrig show 4.123.6
    hyptrig verify 4.119 --param p=1 --param q=1
    hyptrig audit --samples 25 --seed 17 --report audit_report.json

Exit codes: 0 on success, 1 when any record's verdict was unexpected, 2
for usage errors or unknown entries.  HYPTRIG_REPORT_DIR, when set, is the
directory a relative report path is taken in; an absolute one is kept.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .errors import DomainError, UnknownEntryError
from . import catalog
from . import auditor


def _parse_params(items: Optional[List[str]]):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise DomainError(f"--param expects name=value, got {item!r}")
        name, _, raw = item.partition("=")
        try:
            params[name.strip()] = float(raw)
        except ValueError:
            raise DomainError(f"--param {name}: {raw!r} is not a number") from None
    return params


def _entry_list(raw: str) -> Optional[List[str]]:
    return [e.strip() for e in raw.split(",")] if raw else None


def _path(raw: str) -> Optional[str]:
    return raw or None


# setting -> (flag, converter from text, help); each is a config-file key,
# the dest of the audit flag that overrides it and, but for report_path, an
# AuditConfig field.  A converter returning None (an empty entry list or
# path) leaves the setting as it was.
_SETTINGS = {
    "samples": ("--samples", int, None),
    "seed": ("--seed", int, None),
    "pass_tol": ("--tol", float, None),
    "entries": ("--entries", _entry_list, "comma-separated entry ids"),
    "report_path": ("--report", _path, "report file path"),
}


def _read_config_file(path: str) -> dict:
    # flat key=value lines; '#' starts a comment
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file {path!r}: {exc}") from None
    out = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _SETTINGS:
            raise DomainError(f"unknown config key {key!r}")
        try:
            value = _SETTINGS[key][1](raw)
        except ValueError:
            raise DomainError(f"config key {key}: bad value {raw!r}") from None
        if value is not None:
            out[key] = value
    return out


def _given(args) -> dict:
    """The settings given as flags."""
    return {key: getattr(args, key) for key in _SETTINGS
            if getattr(args, key, None) is not None}


def _cmd_list(args) -> int:
    print(f"{'entry':<14s} {'flags':<18s} note")
    print("-" * 100)
    for e in catalog.list_entries():
        flags = ",".join(sorted(e.flags)) or "-"
        note = e.provenance_note.split(";")[0]
        print(f"{e.id:<14s} {flags:<18s} {note}")
    return 0


def _cmd_show(args) -> int:
    e = catalog.get_entry(args.entry)
    print(f"entry:   {e.id}")
    print(f"params:  {', '.join(e.param_names) or '(none)'}")
    print(f"flags:   {', '.join(sorted(e.flags)) or '(none)'}")
    print("domain:")
    for predicate in e.domain:
        print(f"  {predicate}")
    print(f"note:    {e.provenance_note}")
    return 0


def _cmd_verify(args) -> int:
    params = _parse_params(args.param)
    tol = _given(args).get("pass_tol", auditor.AuditConfig.pass_tol)
    records = auditor.verify_point(args.entry, params, tol)
    for rec in records:
        tag = f"[{rec.convention}]" if rec.convention else ""
        print(f"{rec.verdict:<9s} {rec.entry_id}{tag} params={rec.params} "
              f"closed={rec.closed!r} numeric={rec.numeric.value!r} "
              f"rel_diff={rec.rel_diff:.3e}"
              + (f" ratio={rec.ratio_fit:.12g}" if rec.ratio_fit is not None else ""))
        if rec.note:
            print(f"  note: {rec.note}")
    return 1 if any(rec.unexpected for rec in records) else 0


def _cmd_audit(args) -> int:
    values = _read_config_file(args.config) if args.config else {}
    values.update(_given(args))
    # os.path.join keeps an absolute report path as given
    path = os.path.join(os.environ.get("HYPTRIG_REPORT_DIR", ""),
                        values.pop("report_path", "audit_report.json"))
    report = auditor.audit_all(auditor.AuditConfig(**values))
    auditor.save_report(report, path)
    print(auditor.format_table(report))
    print(f"report written to {path}")
    return 0 if report.overall_ok else 1


_COMMANDS = {"list": _cmd_list, "show": _cmd_show, "verify": _cmd_verify,
             "audit": _cmd_audit}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyptrig",
        description="Closed forms and quadrature audit for hyperbolic-"
                    "trigonometric definite integrals.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the entry table with flags")

    p_show = sub.add_parser("show", help="describe one entry")
    p_show.add_argument("entry")

    p_verify = sub.add_parser("verify", help="verify one parameter point")
    p_verify.add_argument("entry")
    p_verify.add_argument("--param", action="append", metavar="NAME=VALUE")

    p_audit = sub.add_parser("audit", help="run the sampled sweep")
    for p, keys in ((p_verify, ["pass_tol"]), (p_audit, _SETTINGS)):
        for key in keys:
            flag, convert, help_text = _SETTINGS[key]
            p.add_argument(flag, dest=key, type=convert, help=help_text)
    p_audit.add_argument("--config", default=None,
                         help="flat key=value config file")
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UnknownEntryError as exc:
        print(f"unknown entry: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
