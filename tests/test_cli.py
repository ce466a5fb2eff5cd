"""CLI behaviour: commands, exit codes, report files, environment override,
audit settings from flags alone, and output stability."""

import json
import warnings

from conftest import time_limit
from hyptrig import auditor, catalog, quad
from hyptrig.cli import run

# each entry's domain as the table states it
DOMAINS = {
    "L1": {"p > 1", "a > 0", "|b| < a"}, "C1": {"a > 0", "|b| < a"},
    "L3a": {"a > 0"}, "L3b": {"a > 0"}, "L4": {"a >= 0", "beta > 0"},
    "4.118": {"a > 0"}, "4.119": {"p > 0", "q > 0"},
    "4.121.1": {"beta > 0"}, "4.121.2": {"beta > 0"},
    "4.122.1": {"delta > 0", "gamma > 0"}, "4.122.2": {"a > 0", "0 <= beta < 1"},
    "3.981.5": {"gamma > 0", "|beta| < gamma", "a > 0"},
    "4.123.1": {"a > 0"}, "4.123.1-m2": {"a > 0"}, "4.123.1-m3": {"a > 0"},
    "4.123.1-m4": {"a > 0"}, "4.123.2": {"a > 0"}, "4.123.3": {"a > 0"},
    "4.123.4": {"a > 0"}, "4.123.5": {"a > 0", "0 < beta < 1", "gamma > 0"},
    "4.123.6": {"a > 0", "b > 0", "p > 0"}, "4.123.7": {"a > 0"},
    "4.124.1": {"p > 0", "q > 0", "u > 0"},
    "4.124.1-nu-1": {"p > q", "q > 0", "u > 0"},
    "4.124.2": {"a > 0", "beta > 0", "u > 0", "a > beta"},
    "3.527.3": {"mu >= 1", "a > 0"}, "3.532.1": {"n > -1", "a > 0", "b > 0"},
    "4.117.9c": {"a > 0"}, "HW1": set(), "HW2": set(), "HW3": set(),
}


class TestList:
    def test_row_count_and_suspect(self, capsys):
        assert run(["list"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines()[2:] if l.strip()]
        assert len(rows) >= 25
        suspect_row = next(l for l in rows if l.startswith("4.124.2"))
        assert "suspect" in suspect_row


class TestShow:
    def test_show(self, capsys):
        assert run(["show", "4.123.6"]) == 0
        out = capsys.readouterr().out
        assert "a > 0" in out and "p > 0" in out

    def test_show_prints_each_entrys_domain(self, capsys):
        assert set(DOMAINS) == {e.id for e in catalog.list_entries()}
        for entry_id, domain in DOMAINS.items():
            assert run(["show", entry_id]) == 0
            out = capsys.readouterr().out
            shown = out.split("domain:\n")[1].split("note:")[0].splitlines()
            assert {line.strip() for line in shown} == domain, entry_id

    def test_show_unknown(self, capsys):
        assert run(["show", "nosuch"]) == 2


class TestVerify:
    def test_pass_line(self, capsys):
        code = run(["verify", "4.119", "--param", "p=1", "--param", "q=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS")

    def test_pass_at_small_a_of_4118(self, capsys):
        # the closed form keeps its digits where -2 + a pi coth(a pi/2) cancels
        assert run(["verify", "4.118", "--param", "a=1e-8"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_pass_at_large_a_of_41179c(self, capsys):
        # the closed form keeps its digits where log(1/tanh(a/2)) cancels
        assert run(["verify", "4.117.9c", "--param", "a=30"]) == 0
        assert capsys.readouterr().out.startswith("PASS")

    def test_unknown_entry(self):
        assert run(["verify", "nosuch"]) == 2

    def test_bad_param(self):
        assert run(["verify", "4.119", "--param", "p=one"]) == 2
        assert run(["verify", "4.119", "--param", "p"]) == 2

    def test_domain_violation(self):
        assert run(["verify", "L1", "--param", "p=0.5", "--param", "a=1",
                    "--param", "b=0"]) == 2

    def test_suspect_expected_failure_is_success(self, capsys):
        code = run(["verify", "4.124.2", "--param", "a=1", "--param",
                    "beta=0.5", "--param", "u=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DIVERGENT" in out

    def test_dual_convention_output(self, capsys, monkeypatch):
        # both conventions' lines come from one integral of the point
        jobs = []
        integrate_many = quad.integrate_many
        monkeypatch.setattr(quad, "integrate_many",
                            lambda batch: jobs.extend(batch) or integrate_many(batch))
        code = run(["verify", "3.532.1", "--param", "n=2", "--param", "a=1",
                    "--param", "b=1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" in out and "[printed]" in out
        assert len(jobs) == 1

    def test_usage_error(self):
        assert run(["verify"]) == 2
        assert run(["frobnicate"]) == 2


class TestAudit:
    def test_report_written(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        code = run(["audit", "--samples", "2", "--entries", "4.119,HW2",
                    "--report", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["overall_ok"] is True
        assert payload["config"]["samples"] == 2
        assert {r["entry_id"] for r in payload["records"]} == {"4.119", "HW2"}

    def test_env_dir_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPTRIG_REPORT_DIR", str(tmp_path))
        code = run(["audit", "--samples", "1", "--entries", "HW1",
                    "--report", "sub.json"])
        assert code == 0
        assert (tmp_path / "sub.json").exists()

    def test_flags_echoed_in_report(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = run(["audit", "--samples", "2", "--seed", "5", "--tol", "1e-9",
                    "--entries", "4.118, L4", "--report", str(path)])
        assert code == 0
        config = json.loads(path.read_text())["config"]
        assert (config["seed"], config["pass_tol"]) == (5, 1e-9)
        assert config["entries"] == ["4.118", "L4"]

    def test_empty_entries_audits_every_entry(self, tmp_path, capsys):
        path = tmp_path / "all.json"
        assert run(["audit", "--samples", "1", "--entries", "", "--report", str(path)]) == 0
        payload = json.loads(path.read_text())
        every = sorted(e.id for e in catalog.list_entries())
        assert payload["config"]["entries"] == every
        assert sorted({r["entry_id"] for r in payload["records"]}) == every

    def test_empty_report_is_the_default_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HYPTRIG_REPORT_DIR", str(tmp_path))
        assert run(["audit", "--samples", "1", "--entries", "HW1", "--report", ""]) == 0
        assert [f.name for f in tmp_path.iterdir()] == ["audit_report.json"]

    def test_stable_stdout(self, tmp_path, capsys):
        args = ["audit", "--samples", "2", "--entries", "4.119",
                "--report", str(tmp_path / "r.json")]
        run(args)
        first = capsys.readouterr().out
        run(args)
        second = capsys.readouterr().out
        assert first == second


def _rejected(argv, capsys):
    assert run(argv) == 2
    assert "invalid arguments" in capsys.readouterr().err


class TestInvalidSettings:
    def test_audit_tol_above_one(self, tmp_path, capsys):
        _rejected(["audit", "--entries", "HW1", "--tol", "5",
                   "--report", str(tmp_path / "r.json")], capsys)
        assert not (tmp_path / "r.json").exists()

    def test_audit_tol_zero(self, tmp_path, capsys):
        _rejected(["audit", "--entries", "HW1", "--tol", "0",
                   "--report", str(tmp_path / "r.json")], capsys)

    def test_samples_not_a_number(self, tmp_path, capsys):
        assert run(["audit", "--samples", "abc", "--entries", "HW1",
                    "--report", str(tmp_path / "r.json")]) == 2
        assert "invalid int value" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_config_file_is_not_an_option(self, tmp_path, capsys):
        # audit settings come from flags alone
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(f"samples = 1\nentries = HW1\nreport_path = {tmp_path / 'r.json'}\n")
        assert run(["audit", "--config", str(cfg)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_verify_point_where_the_closed_form_overflows(self, capsys):
        with time_limit(5.0):
            _rejected(["verify", "4.118", "--param", "a=1000"], capsys)
            _rejected(["verify", "4.124.1", "--param", "p=1", "--param", "q=10",
                       "--param", "u=80"], capsys)
            # closed forms that are inf and nan without an exception
            assert run(["verify", "4.119", "--param", "p=1e300", "--param", "q=1e-300"]) == 2
            assert capsys.readouterr().err == (
                "invalid arguments: 4.119: closed form is inf at {'p': 1e+300, 'q': 1e-300}\n")
            assert run(["verify", "4.121.1", "--param", "a=1e-300", "--param", "b=1e300",
                        "--param", "beta=1e-300"]) == 2
            assert "4.121.1: closed form is nan at" in capsys.readouterr().err
            # numpy's overflow, with no warning
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(["verify", "4.122.2", "--param", "a=1e300", "--param", "beta=0.5"]) == 2
            assert not caught
            assert capsys.readouterr().err == (
                "invalid arguments: 4.122.2: overflows a double at {'a': 1e+300, 'beta': 0.5}\n")

    @staticmethod
    def _no_audit(monkeypatch):
        # the report path is checked before any point is integrated
        def audit_all(config):
            raise AssertionError("audit_all ran before the report path was checked")
        monkeypatch.setattr(auditor, "audit_all", audit_all)

    def test_report_path_is_a_directory(self, tmp_path, capsys, monkeypatch):
        self._no_audit(monkeypatch)
        assert run(["audit", "--samples", "1", "--entries", "4.119",
                    "--report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid arguments: cannot write report {str(tmp_path)!r}")
        assert list(tmp_path.iterdir()) == []

    def test_report_dir_missing(self, tmp_path, capsys, monkeypatch):
        self._no_audit(monkeypatch)
        missing = tmp_path / "missing"
        monkeypatch.setenv("HYPTRIG_REPORT_DIR", str(missing))
        assert run(["audit", "--samples", "1", "--entries", "HW1",
                    "--report", "r.json"]) == 2
        assert "cannot write report" in capsys.readouterr().err
        assert not missing.exists()
        monkeypatch.delenv("HYPTRIG_REPORT_DIR")
        assert run(["audit", "--report", str(missing / "r.json")]) == 2
        assert "no directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_verify_tol_above_one(self, capsys):
        _rejected(["verify", "4.119", "--param", "p=1", "--param", "q=1",
                   "--tol", "5"], capsys)
