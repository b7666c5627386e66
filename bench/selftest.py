"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

It runs every pool job once untraced and once traced (about two minutes on a
2-core machine) and checks that tracing leaves every envelope byte-identical,
that each layer the benchmark predicts to be heavy on a workload does work
there, and that job lists depend on the seed and on nothing else.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import POOLS, job_id, job_list  # noqa: E402

# Per-layer metrics that must be non-zero on each workload (README.md gives
# the end-to-end metric each should move).
HEAVY = {
    "bfun-certify": [
        "weyl.apply_to_twisted.calls", "weyl.apply_to_twisted.self_s",
        "exactalg.Polynomial.__mul__.calls",
        "exactalg.Polynomial.__mul__.self_s",
        "vforacle.verify_bfunction.calls", "linalg.Echelon.insert.calls",
        "vforacle.escalation_retries"],
    "ppd-syzygy": [
        "weyl.weyl_mul.calls", "weyl.weyl_mul.self_s",
        "linalg.Echelon.insert.calls", "linalg.Echelon.insert.self_s",
        "linalg.Echelon.insert.rank_gain_ratio",
        "linalg.nullspace.calls", "linalg.nullspace.columns",
        "linalg.nullspace.deps", "linalg.nullspace.self_s",
        "weyl.bounded_operator_basis.operators",
        "weyl.syzygy_kernel.tuples", "weyl.syzygy_kernel.self_s",
        "ppd.weight_module_generators.calls", "ppd.hodge_on_weight.calls",
        "ppd.hodge_weight_interval21.calls"],
    "crosscheck-oracle": [
        "linalg.Echelon.reduce.calls", "linalg.Echelon.reduce.self_s",
        "vforacle.crosscheck_hodge_weight.calls",
        "vforacle.presentation_span.calls", "vforacle.pole_apply.calls",
        "vforacle.escalation_retries"],
}
ABSENT = {"crosscheck-oracle": ["weyl.weyl_mul.calls",
                                "weyl.apply_to_twisted.calls"]}


@pytest.fixture(scope="module", params=sorted(POOLS))
def traced(request, tmp_path_factory):
    """(workload, untraced results, traced results, tracer) for one pass."""
    workload = request.param
    workdir = tmp_path_factory.mktemp(workload)
    cli, (jobs,) = run.set_up(workload, 1, workdir)
    runner = run.JobRunner(cli, workdir, {})
    plain = {job_id(j): runner.run(j)[1:] for j in jobs}
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = {}
        for pos, job in enumerate(jobs):
            tracer.job = f"pass0/{pos}: {job_id(job)}"
            with_trace[job_id(job)] = runner.run(job)[1:]
    finally:
        tracer.uninstall()
    return workload, plain, with_trace, tracer


def test_traced_envelopes_identical(traced):
    workload, plain, with_trace, _ = traced
    expected = json.loads(run.EXPECTED.read_text())[workload]
    for jid, (code, digest, error) in plain.items():
        assert error is None, (jid, error)
        assert (code, digest) == (expected[jid]["exit"],
                                  expected[jid]["sha256"]), jid
        assert with_trace[jid] == (code, digest, None), jid


def test_predicted_layers_do_work(traced):
    workload, _, _, tracer = traced
    metrics = run.per_layer(tracer, 1.0, 1.0)
    for name in HEAVY[workload]:
        assert metrics[name]["value"] > 0, (workload, name)
    for name in ABSENT.get(workload, []):
        assert metrics[name]["value"] == 0, (workload, name)


def test_spans_carry_parent_and_job(traced):
    _, _, _, tracer = traced
    spans = tracer.span_table()
    assert all(s["job"] is not None for s in spans)
    roots = {s["name"] for s in spans if s["parent"] is None}
    assert roots == {"cli.main"}
    assert any(s["parent"] not in (None, "cli.main") for s in spans)


def test_uninstall_restores_bindings(tmp_path):
    cli, _ = run.set_up("ppd-syzygy", 1, tmp_path)
    ppd = sys.modules["hwkit.ppd"]
    linalg = sys.modules["hwkit.linalg"]
    before = (ppd.weyl_mul, ppd.nullspace, linalg.Echelon.__dict__["insert"],
              cli.main)
    tracer = Tracer()
    tracer.install()
    assert ppd.weyl_mul is not before[0] and cli.main is not before[3]
    assert ppd.weyl_mul is sys.modules["hwkit.weyl"].weyl_mul
    tracer.uninstall()
    assert (ppd.weyl_mul, ppd.nullspace, linalg.Echelon.__dict__["insert"],
            cli.main) == before


def test_job_lists_follow_the_seed():
    for workload, pool in POOLS.items():
        assert len(set(map(job_id, pool))) == len(pool)
        first = job_list(workload, 1)
        assert first == job_list(workload, 1)
        assert first != job_list(workload, 2)
        assert first != job_list(workload, 1, pass_no=1)
        assert sorted(first) == sorted(pool)


def test_timings_are_scaled_medians():
    ref = run.CALIBRATION_REF_S
    a, b = ("a",), ("b",)
    passes = [[(a, 1.0, ref), (b, 2.0, ref)],
              [(a, 2.0, 2 * ref), (b, 1.0, ref / 2)],
              [(a, 3.0, ref), (b, 4.0, 2 * ref)]]
    setups = [(0.1, ref), (0.2, 2 * ref), (0.5, ref)]
    metrics, _ = run.end_to_end(passes, setups)
    assert metrics["wall_s"]["value"] == pytest.approx(3.0)
    assert metrics["job_p50_s"]["value"] == pytest.approx(1.5)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
