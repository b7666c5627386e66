#!/usr/bin/env python3
"""hwkit benchmark: cold CLI jobs driven in-process through hwkit.cli.main.

    python3 bench/run.py --workload bfun-certify --seed 1 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: the next job starts
when the previous one returns.  The seed orders the workload's job pool
(workloads.py) into the job list; a pass runs that list once.  A run makes
round(--seconds / PASS_SECONDS[workload]) passes, at least one.  Every job's
exit code and the SHA-256 of its --json envelope are checked against
expected.json, recorded from cold runs.  HWKIT_CACHE is removed from the
environment, so no job is served from the envelope cache.

Every timing is scaled to a reference speed: a fixed calibration loop
(calibrate) runs between timed jobs and before each set-up, and a time is
multiplied by CALIBRATION_REF_S over that loop's time.  Other tenants of a
shared host change the speed of a core by tens of percent for minutes at a
time; the loop slows with the job and the ratio does not.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass
and one traced pass (tracer.py) and reports the traced pass's per-layer
metrics plus trace.overhead_ratio; it also writes the span table to
bench/out/.  The last line of standard output is one JSON object; the lines
before it give every metric by name and unit for a reader.

--record runs every pool job once and rewrites expected.json.  Use it only
when an envelope change is intended and argued.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import CLOSED_FORMS, Tracer
from workloads import ANN_FILES, PASS_SECONDS, POOLS, job_id, job_list

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED = BENCH / "expected.json"
SETUPS = 15         # set-ups per run; setup_s is their median
TAIL_BEYOND = 10    # samples required beyond the reported tail percentile
# Time of calibrate() on the reference machine (README.md).  A timing scaled
# by CALIBRATION_REF_S / calibrate() reads as on that machine.
CALIBRATION_REF_S = 0.008

SPAN_METRICS = {
    "weyl.weyl_mul": ("calls", "self_s"),
    "weyl.apply_to_twisted": ("calls", "self_s"),
    "exactalg.Polynomial.__mul__": ("calls", "self_s"),
    "linalg.Echelon.insert": ("calls", "self_s"),
    "linalg.Echelon.reduce": ("calls", "self_s"),
    "linalg.nullspace": ("calls", "self_s"),
    "weyl.bounded_operator_basis": ("calls", "self_s"),
    "weyl.syzygy_kernel": ("calls", "self_s"),
    "vforacle.verify_bfunction": ("calls", "self_s"),
    "vforacle.crosscheck_hodge_weight": ("calls", "self_s"),
    "vforacle.presentation_span": ("calls", "self_s"),
    "vforacle.reduce_presentation": ("calls", "self_s"),
    "vforacle.pole_apply": ("calls", "self_s"),
    "ppd.weight_module_generators": ("calls", "self_s"),
    "ppd.hodge_on_weight": ("calls", "self_s"),
    "ppd.hodge_weight_interval21": ("calls", "self_s"),
    "cli.main": ("self_s",),
}
COUNT_METRICS = ("linalg.nullspace.columns", "linalg.nullspace.deps",
                 "weyl.bounded_operator_basis.operators",
                 "weyl.syzygy_kernel.tuples")


def calibrate() -> float:
    """Time a fixed piece of pure-Python exact arithmetic: Fraction sums
    with growing big-int denominators and dict updates, the operations
    hwkit's kernels spend their time in."""
    t0 = perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i, i + 7)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return perf_counter() - t0


class JobRunner:
    """Runs jobs against one imported hwkit and checks them."""

    def __init__(self, cli, workdir: Path, expected: dict):
        self.cli = cli
        self.workdir = workdir
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def argv(self, job):
        return [str(self.workdir / a[1:]) if a.startswith("@") else a
                for a in job] + ["--json"]

    def run(self, job):
        """(latency, exit code, envelope sha256, error text or None)."""
        out, err = io.StringIO(), io.StringIO()
        argv = self.argv(job)
        error = None
        # A CLI call starts with an empty heap; leave no garbage of the
        # previous job to be collected inside this one.
        gc.collect()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                # looked up per call, so a traced cli.main is the one run
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a job's crash is a failure, not an abort
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        return latency, code, digest, error

    def check(self, job):
        """Run and check one job; return its latency."""
        latency, code, digest, error = self.run(job)
        self.attempted += 1
        want = self.expected.get(job_id(job))
        if error is None and want is None:
            error = "no expected envelope recorded"
        elif error is None and code != want["exit"]:
            error = f"exit {code}, expected {want['exit']}"
        elif error is None and digest != want["sha256"]:
            error = "envelope digest differs"
        if error is not None:
            self.failed += 1
            print(f"FAILED {job_id(job)}: {error}", file=sys.stderr)
        return latency

    def run_pass(self, jobs, tracer=None, pass_no=0):
        """Run the job list once with a calibration between jobs; return
        [(job, latency, calibration time)], where a job's calibration time
        is the geometric mean of the ones just before and just after it."""
        samples = []
        before = calibrate()
        for pos, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"pass{pass_no}/{pos}: {job_id(job)}"
            latency = self.check(job)
            after = calibrate()
            samples.append((job, latency, math.sqrt(before * after)))
            before = after
        return samples


def set_up(workload: str, seed: int, workdir: Path, passes: int = 1):
    """Import hwkit afresh, write the workload's inputs and draw the job
    list of each pass."""
    for name in [n for n in sys.modules
                 if n == "hwkit" or n.startswith("hwkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("hwkit.cli")
    for name, text in ANN_FILES.items():
        (workdir / name).write_bytes(text.encode())
    return cli, [job_list(workload, seed, i) for i in range(passes)]


def repeat_passes(runner, job_lists):
    """Run each pass's job list; return one sample list per pass."""
    return [runner.run_pass(jobs, pass_no=i)
            for i, jobs in enumerate(job_lists)]


def scaled(seconds, cal):
    """A time measured next to a calibration time, at the reference speed."""
    return seconds * CALIBRATION_REF_S / cal


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setups):
    """End-to-end metrics of an untraced run, at the reference speed.

    Each job is timed by the median of its scaled runs among the run's
    passes.  Every run of the job counts as one sample at that time; p50 and
    tail are taken over those samples, and wall_s is the time of one pass at
    those times.  setups holds (set-up time, calibration time) pairs.
    """
    runs = {}
    for one_pass in passes:
        for job, latency, cal in one_pass:
            runs.setdefault(job, []).append(scaled(latency, cal))
    typical = {job: statistics.median(ts) for job, ts in runs.items()}
    samples = [typical[job] for job, ts in runs.items() for _ in ts]
    t, pct, beyond = tail(samples)
    cals = [cal for one_pass in passes for _, _, cal in one_pass]
    metrics = {
        "wall_s": metric(sum(typical.values()), "s"),
        "job_p50_s": metric(statistics.median(samples), "s"),
        "job_tail_s": metric(t, "s"),
        "setup_s": metric(
            statistics.median(scaled(s, cal) for s, cal in setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "wall_s": f"{len(typical)} jobs, each at its median of "
                  f"{len(passes)} runs; unscaled pass times "
                  + ", ".join(f"{sum(l for _, l, _ in p):.2f}"
                              for p in passes)
                  + "; calibration median "
                  f"{statistics.median(cals) * 1000:.2f} ms, reference "
                  f"{CALIBRATION_REF_S * 1000:.2f} ms",
        "job_p50_s": f"median of {len(samples)} job runs",
        "job_tail_s": f"p{pct:.1f} of {len(samples)} job runs, "
                      f"{beyond} beyond it",
        "setup_s": f"median of {SETUPS} set-ups",
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


def per_layer(tracer: Tracer, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass."""
    totals = tracer.totals()
    metrics = {}
    for name, stats in SPAN_METRICS.items():
        calls, _, self_s = totals.get(name, (0, 0.0, 0.0))
        if "calls" in stats:
            metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    for name in COUNT_METRICS:
        metrics[name] = metric(tracer.counts.get(name, 0), "count")
    inserts = totals.get("linalg.Echelon.insert", (0,))[0]
    gains = tracer.counts.get("linalg.Echelon.insert.rank_gains", 0)
    metrics["linalg.Echelon.insert.rank_gain_ratio"] = metric(
        gains / inserts if inserts else 0.0, "ratio")
    metrics["vforacle.escalation_retries"] = metric(
        tracer.escalation_retries(), "count")
    for mod in CLOSED_FORMS:
        metrics[f"{mod}.self_s"] = metric(
            sum((s for name, (_, _, s) in totals.items()
                 if name.startswith(mod + ".")), 0.0), "s")
    metrics["trace.overhead_ratio"] = metric(traced_wall / untraced_wall,
                                             "ratio")
    return dict(sorted(metrics.items()))


def record(workloads, workdir: Path):
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for workload in workloads:
        cli, _ = set_up(workload, 0, workdir)
        runner = JobRunner(cli, workdir, {})
        table[workload] = {}
        for job in POOLS[workload]:
            latency, code, digest, error = runner.run(job)
            if error is not None:
                raise SystemExit(f"{job_id(job)}: {error}")
            table[workload][job_id(job)] = {"exit": code, "sha256": digest}
            print(f"{latency:8.3f} s  exit {code}  {job_id(job)}")
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(POOLS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from one run of every job")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    if not (SRC / "hwkit" / "cli.py").is_file():
        print(f"hwkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A cache hit would time a file read instead of the oracle.
    os.environ.pop("HWKIT_CACHE", None)

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        if args.record:
            record([args.workload] if args.workload else sorted(POOLS),
                   workdir)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    expected = json.loads(EXPECTED.read_text())[args.workload]
    # A fixed pass count per workload keeps the sample count behind
    # job_tail_s the same in every run, however fast the machine is.
    passes = 1 if args.trace else max(
        1, round(args.seconds / PASS_SECONDS[args.workload]))
    setups = []
    for _ in range(SETUPS):
        cal = calibrate()
        t0 = perf_counter()
        cli, job_lists = set_up(args.workload, args.seed, workdir, passes)
        setups.append((perf_counter() - t0, cal))
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported hwkit from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    runner = JobRunner(cli, workdir, expected)
    jobs = job_lists[0]
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs "
          f"per pass")
    if args.trace:
        untraced_wall = sum(scaled(l, cal)
                            for _, l, cal in runner.run_pass(jobs))
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall = sum(scaled(l, cal)
                              for _, l, cal in runner.run_pass(jobs, tracer))
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced_wall, untraced_wall)
        notes = {}
        print(f"untraced pass {untraced_wall:.4f} s, traced pass "
              f"{traced_wall:.4f} s (scaled)")
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.span_table(), indent=1) + "\n")
    else:
        metrics, notes = end_to_end(repeat_passes(runner, job_lists),
                                    setups)
    ratio = runner.failed / runner.attempted
    print(f"{'failed_ratio':42s} {ratio:12.6g} ratio   "
          f"({runner.failed} of {runner.attempted} jobs)")
    for name, m in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {m['value']:12.6g} {m['unit']:7s}{note}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
