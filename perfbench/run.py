"""submodcurv benchmark: CLI job workloads, timed end to end, checked
against pins and oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  The seed generates the workload's jobs (see jobs.py); worker.py
runs them back to back through ``submodcurv.cli.main(argv)`` in a fresh
interpreter, in whole passes: as many as the workload's nominal pass time
fits into --seconds.  Every job's exit code, stdout and stderr are checked
against the pins and oracles in check.py.

--trace 0 prints the end-to-end metrics:
  setup_s      a fresh interpreter importing submodcurv.cli: median over
               launches before and after the workload (the first launch,
               which writes the bytecode cache, is not counted)
  jobs_per_s   jobs completed per second of summed job time
  job_p50_ms   median job time, main(argv) call to return
  job_p90_ms   90th percentile job time
  peak_rss_mb  peak RSS of the worker process (ru_maxrss)
  failed_frac  jobs failing a pin or an oracle / jobs attempted; printed
               with the table, and carried by "attempted" and "failed" in
               the result line (which leaves out open known defects)
--trace 1 runs each job of the workload's first passes traced and untraced,
back to back, and prints the per-layer metrics of tracing.py and the
tracing overhead; the spans are written to perfbench/.work/.

Job and import times are CPU times of the single-threaded process that
runs them.  A job does no I/O inside main(argv) (its output goes to a
buffer), so this is its wall time on a core of its own.  On a shared
machine wall time also counts the time other processes hold the core: on
the 2-vCPU VM this benchmark was written on, a fixed Fraction loop took up
to twice its CPU time in wall time.  Every run prints the ratio of the two.
Job times are then scaled to a reference machine speed by the calibration
samples the worker takes between jobs (calibration.py), because the speed
of that VM drifted by 30% within minutes; the scale factor is printed with
every run, so raw times are the reported ones divided by it.  Each import
time is scaled by its own launch: the child times a fixed integer loop
just before and just after the import (calibration.SPIN_REFERENCE_NS).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import check
import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_LAUNCHES = 8  # before the workload, and as many again after it
DEADLINE_S = 170  # the whole run, set-up and checks included


SETUP_CODE = f"""
import sys, time
{calibration.SPIN_SOURCE}
before = spin()
start = time.process_time_ns()
sys.path.insert(0, 'src')
import submodcurv.cli
took = time.process_time_ns() - start
print(took, before + spin())
"""


def measure_setup(root, launches):
    """Import times of submodcurv.cli in fresh interpreters, in seconds:
    CPU time measured inside each child, scaled to the reference speed by
    the spin() times around the import."""
    # bytecode is cached as for an installed package, whatever the caller's
    # PYTHONDONTWRITEBYTECODE says: compiling the sources triples the time
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for _ in range(launches):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                             env=env, check=True, timeout=60, text=True,
                             stdout=subprocess.PIPE).stdout
        took, spins = map(int, out.split())
        times.append(took / 1e9 * 2 * calibration.SPIN_REFERENCE_NS / spins)
    return times


def run_worker(workload, mode, workdir, extra=(), timeout=None, hash_seed=0):
    """Run worker.py in a fresh interpreter; returns its job records and
    summary.  COLUMNS is fixed because argparse wraps its usage message to
    the terminal width, and those bytes are pinned."""
    results = Path(workdir) / "results.jsonl"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), COLUMNS="80")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--mode", mode, "--workdir", str(workdir),
           "--results", str(results), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    records = [json.loads(line) for line in
               results.read_text(encoding="utf-8").splitlines()]
    return records[:-1], records[-1]["summary"]


def load_pins():
    with open(HERE / "pins.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import submodcurv
    return submodcurv


# ---------------------------------------------------------------------------
# Workload profile: sizes and sharing, printed with every run


def _ideal_key(meta):
    return (meta["catalogue"], tuple(meta["gens"] or ()))


def profile(records, pool):
    tasks, ms, ds, ns, npts = Counter(), Counter(), Counter(), Counter(), Counter()
    seen_jobs, seen_ideals, seen_kernels = set(), set(), set()
    repeats = ideal_reuse = kernel_reuse = kernel_jobs = 0
    for rec in records:
        job = pool[rec["job"]]
        meta = job.meta
        tasks[job.task] += 1
        if meta["m"] is not None:
            ms[meta["m"]] += 1
        if job.task in ("decompose", "metric", "curvature", "compare"):
            ds[meta["D"]] += 1
        if job.task in ("kernel", "dimension"):
            ns[meta["N"]] += 1
            npts[len(meta["points"] or ())] += 1
        repeats += rec["job"] in seen_jobs
        seen_jobs.add(rec["job"])
        if meta["m"] is not None:
            key = (tuple(meta["weights"]), _ideal_key(meta))
            ideal_reuse += key in seen_ideals
            seen_ideals.add(key)
        if job.task == "kernel":
            kernel_jobs += 1
            key = (tuple(meta["weights"]), _ideal_key(meta), meta["N"])
            kernel_reuse += key in seen_kernels
            seen_kernels.add(key)
    n = max(len(records), 1)

    def dist(c):
        return " ".join(f"{k}:{v}" for k, v in sorted(c.items())) or "-"
    lines = [
        f"tasks        {dist(tasks)}",
        f"m            {dist(ms)}",
        f"D (trunc)    {dist(ds)}",
        f"N (ideal)    {dist(ns)}",
        f"points/job   {dist(npts)}",
        f"share reusing an earlier job's (module, ideal): {ideal_reuse / n:.3f}",
        f"share repeating an earlier job exactly:         {repeats / n:.3f}",
    ]
    if kernel_jobs:
        lines.append(f"share of kernel jobs reusing an earlier kernel "
                     f"(module, ideal, N): {kernel_reuse / kernel_jobs:.3f}")
    return lines


# ---------------------------------------------------------------------------


def end_to_end(records, summary, setup):
    """Metrics of a timed run, job times scaled to the reference machine
    speed (calibration.py); also returns the median scale factor."""
    samples = summary["calibrations"]
    factors = calibration.scales(samples, [rec["cal"] for rec in records])
    ms = [rec["cpu_ns"] / 1e6 * f for rec, f in zip(records, factors)]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return {
        "setup_s": (statistics.median(setup), "s", f"{len(setup)} launches"),
        "jobs_per_s": (len(ms) / (sum(ms) / 1e3), "jobs/s",
                       f"{len(ms)} jobs, {summary['passes']} passes"),
        "job_p50_ms": (statistics.median(ms), "ms", f"{len(ms)} jobs"),
        "job_p90_ms": (p90, "ms", f"{len(ms)} jobs, "
                                  f"{sum(x > p90 for x in ms)} beyond"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB", "1 process"),
    }, statistics.median(factors)


def main(argv=None):
    ap = argparse.ArgumentParser(description="submodcurv benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "submodcurv" / "cli.py").is_file():
        print(f"error: no submodcurv sources under {ROOT / 'src'}; run from "
              "a source checkout", file=sys.stderr)
        return 2

    work = HERE / ".work"
    run_dir = work / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spans = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        setup = [] if args.trace else measure_setup(ROOT, SETUP_LAUNCHES + 1)[1:]
        deadline = DEADLINE_S - 5 - (time.perf_counter() - started)
        extra = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace:
            extra += ["--spans", str(spans)]
        records, summary = run_worker(args.workload,
                                      "trace" if args.trace else "timed",
                                      run_dir, extra, deadline)
        if not args.trace:
            setup += measure_setup(ROOT, SETUP_LAUNCHES)
        pool = jobs.pool(args.workload)
        verdict = check.check_records(records, pool, load_pins(),
                                      check.Oracles(import_package()))
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    why = jobs.WORKLOADS[args.workload]["why"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"closed loop, 1 client, 1 process, 1 thread")
    print(f"why: {why}")
    measured = [r for r in records if r["phase"] in ("timed", "untraced")]
    for line in profile(measured, pool):
        print("  " + line)
    cpu = sum(r["cpu_ns"] for r in measured)
    wall = sum(r["wall_ns"] for r in measured)
    print(f"  job CPU time / wall time: {cpu / wall:.3f} "
          "(below 1 when other processes held the core)")

    rows = []
    if args.trace:
        from tracing import LAYER_METRICS, layer_metrics
        spans_in = [json.loads(line) for line in
                    spans.read_text(encoding="utf-8").splitlines()]
        metrics = layer_metrics(spans_in)
        n = sum(r["phase"] == "traced" for r in records)
        traced_jps = n / (summary["traced_ns"] / 1e9)
        untraced_jps = n / (summary["untraced_ns"] / 1e9)
        metrics["trace.overhead_ratio"] = {
            "value": untraced_jps / traced_jps, "unit": "ratio"}
        print(f"traced run: {n} jobs ({summary['passes']} passes), "
              f"{len(spans_in)} spans in {spans.relative_to(ROOT)}")
        print(f"tracing overhead: traced {traced_jps:.3f} jobs/s against "
              f"untraced {untraced_jps:.3f} jobs/s on the same jobs")
        for name, unit, _, _ in LAYER_METRICS + [
                ("trace.overhead_ratio", "ratio", None, None)]:
            rows.append((name, metrics[name]["value"], unit, f"{n} jobs"))
    else:
        e2e, factor = end_to_end(measured, summary, setup)
        print(f"  times scaled by {factor:.4f} (median over jobs) to the "
              f"reference speed: {len(summary['calibrations'])} calibration "
              f"samples, median {statistics.median(summary['calibrations']) / 1e6:.3f} ms, "
              f"reference {calibration.REFERENCE_NS / 1e6:.3f} ms")
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
        rows = [(k, v, u, s) for k, (v, u, s) in e2e.items()]
        rows.append(("failed_frac", verdict.failed_frac, "ratio",
                     f"{verdict.attempted} jobs"))

    print(f"{'metric':30s} {'value':>14s}  {'unit':8s} samples")
    for name, value, unit, samples in rows:
        print(f"{name:30s} {value:14.4f}  {unit:8s} {samples}")
    for defect in sorted({pool[name].known_defect for name in verdict.defects}):
        for status in ("open", "fixed"):
            names = [n for n, s in sorted(verdict.defects.items())
                     if s == status and pool[n].known_defect == defect]
            if names:
                print(f"known defect, {status}: {' '.join(names)}")
        print(f"  {defect}")
    for name, reason in verdict.reasons[:20]:
        print(f"FAILED {args.workload}:{name}: {reason}")
    print(json.dumps({"correct": verdict.failed == 0,
                      "attempted": verdict.attempted,
                      "failed": verdict.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
