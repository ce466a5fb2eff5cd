"""Report digest: the bytes of the seed-17 audit report.

tests/data/report_seed17.sha256 holds the sha256 of the report file that
`hyptrig audit --samples 25 --seed 17` writes.  The session's
`full_audit` is saved and hashed in place of a second audit run, with
the keys the fixture adds to its config_echo removed.  Any change to a
verdict, a number's bits, a field or the layout changes the digest;
regenerate it with tests/data/regenerate.py and say why in CHANGES.md.
"""

import dataclasses
import hashlib
from pathlib import Path

from conftest import FIXTURE_ECHO_KEYS
from hyptrig.auditor import save_report

PINNED = Path(__file__).parent / "data" / "report_seed17.sha256"


def test_report_bytes_match_the_pinned_digest(full_audit, tmp_path):
    echo = {k: v for k, v in full_audit.config_echo.items() if k not in FIXTURE_ECHO_KEYS}
    path = tmp_path / "audit_report.json"
    save_report(dataclasses.replace(full_audit, config_echo=echo), str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == PINNED.read_text(encoding="utf-8").strip()
