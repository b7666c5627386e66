"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing the stated runtime budget.  All tolerances are exact equality;
there is nothing to calibrate."""

import hashlib
import json
import time

from hwkit import suite
from hwkit.cli import main

# SHA-256 of `hwkit suite --profile default --json`; independent of
# PYTHONHASHSEED.
SUITE_ENVELOPE_SHA256 = (
    "0bcb0716ccd5c4520983fde8e184c89f4650d445f786f2926f778dee1880d678")


def _run(fn, budget_seconds, label):
    t0 = time.time()
    result = fn()
    elapsed = time.time() - t0
    status = "PASS" if result["passed"] else "FAIL"
    print(f"ACCEPT({result.get('criterion', '?')}) {label}: {status} "
          f"[{elapsed:.2f}s / budget {budget_seconds}s]")
    assert result["passed"], json.dumps(result, indent=2, default=str)[:4000]
    assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s"
    return result


def test_criterion_01_bfunction_certification():
    _run(suite.criterion_1, 10, "b-function certification")


def test_criterion_02_snc_golden_tables():
    _run(suite.criterion_2, 1, "SNC golden tables")


def test_criterion_03_master_crosscheck():
    _run(suite.criterion_3, 120, "master-formula cross-check")


def test_criterion_04_weighted_homogeneous_outputs():
    _run(suite.criterion_4, 5, "weighted-homogeneous outputs")


def test_criterion_05_classification_grid():
    _run(suite.criterion_5, 1, "classification grid")


def test_criterion_06_weight_and_genlevel_bounds():
    _run(suite.criterion_6, 1, "weight and generating-level bounds")


def test_criterion_07_ppd_snc_agreement():
    _run(suite.criterion_7, 120, "syzygy route vs monomial closed forms")


def test_criterion_08_hodge_pole_consistency():
    _run(suite.criterion_8, 10, "pole-order predicate consistency")


def test_criterion_09_property_suites():
    _run(suite.criterion_9, 60, "property suites")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch, capsys):
    t0 = time.time()
    monkeypatch.setenv("HWKIT_CACHE", str(tmp_path))
    code1 = main(["suite", "--profile", "default", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["suite", "--profile", "default", "--json"])
    out2 = capsys.readouterr().out
    elapsed = time.time() - t0
    identical = out1 == out2 and code1 == code2 == 0
    rt = suite.roundtrip_check()
    passed = identical and rt["passed"]
    print(f"ACCEPT(10) CLI determinism + round trips: "
          f"{'PASS' if passed else 'FAIL'} [{elapsed:.2f}s]")
    assert code1 == 0 and code2 == 0
    assert out1 == out2, "suite envelopes differ between runs"
    assert rt["passed"]
    env = json.loads(out1)
    assert env["outputs"]["passed"] is True
    # the behavioural contract: refactors keep the suite envelope byte-exact
    assert hashlib.sha256(out1.encode()).hexdigest() == SUITE_ENVELOPE_SHA256
