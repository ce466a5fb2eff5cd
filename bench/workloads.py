"""The three workloads: inputs built from the workload seed, one round of
ops, and the checks of each round's outputs.

Every round of a workload repeats exactly the same ops, so the share of
failed ops is the same in every run, whatever its length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from typing import List, Optional, Tuple

from hyptrig import auditor, catalog, cli

import checks
import tracing

PASS_TOL = 1e-9
# audit seeds per round
AUDIT_SEEDS_PER_ROUND = 3
# Audit seeds 0 to 199 at which the 25-sample full audit ends one 4.121.1
# record (beta near 0.2, |a - b| > 2) in max_effort, so it is SKIPPED and
# fails; about one seed in twenty does (CHANGES.md, FOUND line on
# verify_entry).  audit-sweep takes consecutive seeds of AUDIT_SWEEP_POOL,
# 0 to 199 without these, so that no op fails on any workload seed.
MAX_EFFORT_SEEDS = (52, 96, 119, 135, 138, 153, 158, 166, 168, 182, 186)
AUDIT_SWEEP_POOL = tuple(s for s in range(200) if s not in MAX_EFFORT_SEEDS)
BESSEL_ENTRIES = ("4.124.1", "4.124.1-nu-1")
# lemma 5 points (z, a): 0.5 < a < 3 and z/a^2 <= 0.5, so LEMMA5_TERMS
# terms of the series leave a remainder below 2^-60
LEMMA5_TERMS = 60

SIZES = {
    "audit-sweep": {"samples": 25},
    "bessel-endpoint": {"samples": 200},
    "closed-forms": {"samples": 50, "lemma5_points": 20},
}


def make(name: str, seed: int, out_dir: str, **size):
    """The named workload at its benchmark size, or at `size` if given."""
    size = size or SIZES[name]
    round_seeds = range(seed, seed + AUDIT_SEEDS_PER_ROUND)
    if name == "audit-sweep":
        pool = AUDIT_SWEEP_POOL
        return AuditWorkload(name, seed, [pool[s % len(pool)] for s in round_seeds],
                             size["samples"], None, out_dir)
    if name == "bessel-endpoint":
        return AuditWorkload(name, seed, list(round_seeds),
                             size["samples"], list(BESSEL_ENTRIES), out_dir)
    if name == "closed-forms":
        return ClosedFormWorkload(seed, size["samples"], size["lemma5_points"])
    raise KeyError(name)


class AuditWorkload:
    """The CLI audit, in-process, for AUDIT_SEEDS_PER_ROUND seeds per round.

    An op is one verification record.  The first report of each seed is
    checked in full; later copies must be byte-identical to it.
    """

    def __init__(self, name: str, seed: int, seeds: List[int], samples: int,
                 entries: Optional[List[str]], out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.name = name
        self.seed = seed
        self.samples = samples
        self.seeds = seeds
        selected = [e for e in catalog.list_entries()
                    if entries is None or e.id in entries]
        self.entries = [e.id for e in selected]
        self.records_per_audit = sum(
            (samples if e.param_names else 1)
            * (2 if "dual_convention" in e.flags else 1) for e in selected)
        self.ops_per_round = self.records_per_audit * len(self.seeds)
        self.paths = {s: os.path.join(out_dir, f"{name}-{s}.json") for s in self.seeds}
        self.argv = {}
        for s in self.seeds:
            argv = ["audit", "--samples", str(samples), "--seed", str(s),
                    "--tol", repr(PASS_TOL), "--report", self.paths[s]]
            if entries is not None:
                argv += ["--entries", ",".join(entries)]
            self.argv[s] = argv
        self.first = {}  # seed -> (digest, exit code, failed records)
        self.kept = []  # (seed, records) the final checks need
        self.report_bytes = 0

    def run_round(self) -> List[Optional[int]]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for s in self.seeds:
                try:
                    codes.append(cli.run(self.argv[s]))
                except Exception:  # an aborted audit: all its records fail
                    codes.append(None)
        return codes

    def check_round(self, codes) -> Tuple[int, List[str]]:
        failed = 0
        problems = []
        report_bytes = 0
        for s, code in zip(self.seeds, codes):
            if code is None:
                failed += self.records_per_audit
                continue
            with open(self.paths[s], "rb") as fh:
                data = fh.read()
            report_bytes += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if s in self.first and self.first[s][:2] == (digest, code):
                failed += self.first[s][2]
                continue
            if s in self.first:
                problems.append(f"seed {s}: report or exit status differs from "
                                f"the first run of the same seed")
            payload = json.loads(data)
            f, p = checks.check_report(payload, code, s, self.samples, PASS_TOL,
                                       self.entries, self.records_per_audit)
            failed += f
            problems += p
            if s not in self.first:
                self.first[s] = (digest, code, f)
                self.kept.append((s, [r for r in payload["records"]
                                      if r["entry_id"] in ("4.124.1", "HW1", "HW2", "HW3")]))
        self.report_bytes = report_bytes
        return failed, problems

    def reference_round(self) -> Tuple[int, List[str]]:
        return self.check_round(self.run_round())

    def final_checks(self) -> List[str]:
        problems = []
        for s, records in self.kept:
            payload = {"records": records, "config": {"entries": self.entries}}
            problems += checks.check_constants(payload, s)
            problems += checks.check_bessel_closed(payload, s)
        return problems


class ClosedFormWorkload:
    """Closed forms and identity helpers evaluated directly, no quadrature.

    An op is one closed-form or identity evaluation:
    - catalog.closed_form for every entry at its auditor.sample_params points
    - cf_3_532_1 in both conventions at the 3.532.1 points
    - lemma5_lhs and lemma5_rhs at seeded points of the convergent region
    - cf_4_124_1_ext at nu = 0 and nu = -1 at the 4.124.1 and
      4.124.1-nu-1 points
    """

    name = "closed-forms"

    def __init__(self, seed: int, samples: int, lemma5_points: int):
        self.seed = seed
        self.calls = []  # (catalog function name, args)
        self.pairs = []  # (label, op index, op index) an identity equates
        closed_at = {}
        for entry in catalog.list_entries():
            for k, pp in enumerate(auditor.sample_params(entry, samples, seed)):
                closed_at[entry.id, k] = len(self.calls)
                self.calls.append(("closed_form", (entry.id, pp)))
                if "dual_convention" in entry.flags:
                    for conv in ("derived", "printed"):
                        self.calls.append(("cf_3_532_1", (pp["n"], pp["a"], pp["b"], conv)))
        rng = random.Random(f"lemma5|{seed}")
        for _ in range(lemma5_points):
            a = rng.uniform(0.5, 3.0)
            z = rng.uniform(0.05, 0.5) * a * a
            self.pairs.append((f"lemma5 z={z!r} a={a!r}", len(self.calls),
                               len(self.calls) + 1))
            self.calls.append(("lemma5_lhs", (z, a, LEMMA5_TERMS)))
            self.calls.append(("lemma5_rhs", (z, a)))
        for eid, nu in (("4.124.1", 0.0), ("4.124.1-nu-1", -1.0)):
            points = auditor.sample_params(catalog.get_entry(eid), samples, seed)
            for k, pp in enumerate(points):
                self.pairs.append((f"cf_4_124_1_ext nu={nu} vs {eid} {pp}",
                                   len(self.calls), closed_at[eid, k]))
                self.calls.append(("cf_4_124_1_ext", (pp["p"], pp["q"], pp["u"], nu)))
        self.ops_per_round = len(self.calls)
        self.reference: List[Optional[float]] = []
        self.specfun_calls = {}
        self.report_bytes = 0

    def run_round(self) -> List[Optional[float]]:
        # looked up per call, as a library caller writes catalog.name(...)
        out = []
        for name, args in self.calls:
            try:
                out.append(getattr(catalog, name)(*args))
            except Exception:  # a failed op is data, not an abort
                out.append(None)
        return out

    def check_round(self, values) -> Tuple[int, List[str]]:
        return (sum(v is None for v in values),
                checks.check_same_values(self.reference, values))

    def reference_round(self) -> Tuple[int, List[str]]:
        """An untimed round that captures every specfun call it makes."""
        captured = self.specfun_calls

        def capture(fn, span_name, kind):
            short = span_name.split(".", 1)[1]

            def wrapper(*args, **kwargs):
                sv = fn(*args, **kwargs)
                key = (short, tuple(a for a in args if isinstance(a, (int, float))))
                captured.setdefault(key, (sv.value, sv.est_rel_error))
                return sv
            return wrapper

        with tracing.patched(capture, layers=("specfun",), entries=False):
            self.reference = self.run_round()
        failed = sum(v is None for v in self.reference)
        pairs = [(label, self.reference[i], self.reference[j])
                 for label, i, j in self.pairs
                 if self.reference[i] is not None and self.reference[j] is not None]
        return failed, checks.check_identity_pairs(pairs)

    def final_checks(self) -> List[str]:
        return checks.check_specfun_calls(
            (fn, args, value, est)
            for (fn, args), (value, est) in sorted(self.specfun_calls.items()))
