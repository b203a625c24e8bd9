"""Output checks.  Every job's outcome is reduced to a small JSON-able
``observed`` record; ``check`` compares it with what the job must produce.

Rational outputs are reduced to a digest of their canonical form: a JSON
report without ``generated_at`` and ``provenance.input_path`` (both vary
between runs and checkouts), a CSV file byte for byte, a library result
through its sorted JSON.  Float outputs are reduced to their status and the
multiset of (criterion, sufficiency) pairs.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_report(path: str | None) -> dict | None:
    """The JSON document at ``path``; None for a missing file or a CSV
    table (error reports are JSON even where the table was asked for)."""
    if not path or not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError:
            return None


def canonical_digest(job, result) -> str:
    if job.argv is None:
        return _sha(json.dumps(result, sort_keys=True))
    if job.out.endswith(".csv"):
        if not os.path.exists(job.out):
            return "missing"
        with open(job.out) as fh:
            return _sha(fh.read())
    report = read_report(job.out)
    if report is None:
        return "missing"
    report.pop("generated_at", None)
    report.get("provenance", {}).pop("input_path", None)
    return _sha(json.dumps(report, sort_keys=True))


def signature(report: dict | None) -> dict:
    """Status plus the sorted (criterion, sufficiency) pairs of the verdict
    and of the individual criteria entries."""
    if report is None:
        return {"status": None, "pairs": []}
    verdict = report.get("verdict") or {}
    pairs = [[e.get("criterion"), e.get("sufficiency")]
             for e in verdict.get("evidence", [])]
    pairs += [[c.get("name"), c.get("sufficiency")] for c in report.get("criteria", [])]
    return {"status": verdict.get("status"), "pairs": sorted(pairs)}


def observe(job, rc, result) -> dict:
    """The record a check compares.  ``rc`` is the CLI exit code, or
    ``"exception: <type>"`` when the job raised."""
    if job.check == "digest":
        return {"rc": rc, "sha256": canonical_digest(job, result)}
    if job.check == "signature":
        return dict(signature(read_report(job.out)), rc=rc)
    return {"rc": rc}


def check(job, rc, result, expected: dict, workload: str) -> tuple[bool, str]:
    """(passed, reason)."""
    if isinstance(rc, str):
        return False, rc
    if job.check in ("digest", "signature"):
        want = expected.get(f"{workload}/{job.name}")
        if want is None:
            return False, "no stored expectation"
        got = observe(job, rc, result)
        return got == want, "" if got == want else f"got {got}, want {want}"
    report = read_report(job.out)
    if job.check == "atomic":
        return _check_atomic(rc, report, job.expect["rank"])
    return _check_expect(job, rc, report)


def _check_atomic(rc, report, rank: int) -> tuple[bool, str]:
    """Finite-rank oracle: a k-atomic measure is determinate, certified
    rigorously in rational mode by a Hankel rank of exactly k."""
    if rc != 0 or report is None or report.get("errors"):
        return False, f"rc {rc}, errors {report and report.get('errors')}"
    verdict = report.get("verdict", {})
    if verdict.get("status") != "determinate":
        return False, f"status {verdict.get('status')}"
    for e in verdict.get("evidence", []):
        if (e.get("criterion") == "hankel-rank"
                and e.get("sufficiency") == "rigorous-sufficient"
                and (e.get("value") or {}).get("rational") == str(rank)):
            return True, ""
    return False, f"no rigorous hankel-rank {rank} item"


def _check_expect(job, rc, report) -> tuple[bool, str]:
    want = job.expect
    if rc != want["rc"]:
        return False, f"rc {rc}, want {want['rc']}"
    if report is None:
        return False, "no report"
    errors = report.get("errors", [])
    if "error" in want:
        if not errors:
            return False, "no structured error"
        if want["error"] != "*" and not any(e.get("error") == want["error"] for e in errors):
            return False, f"errors {[e.get('error') for e in errors]}"
        return True, ""
    if errors:
        return False, f"errors {[e.get('error') for e in errors]}"
    if "status" in want and (report.get("verdict") or {}).get("status") != want["status"]:
        return False, "status differs"
    names = [c.get("name") for c in report.get("criteria", [])]
    if any(n not in names for n in want.get("criteria", [])):
        return False, f"criteria {names}"
    return True, ""
