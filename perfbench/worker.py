"""Run one workload's jobs back to back in this process.

Each job is one call of ``submodcurv.cli.main(argv)``, the function the
``submodcurv`` console script calls, with stdout and stderr captured into
buffers: report rendering is timed, terminal I/O is not.  One client, one
process, one thread, closed loop.  run.py starts this file in a fresh
interpreter so that the peak RSS it reports belongs to the workload.

Modes:
  timed   passes 0, 1, ..., P-1, where P is the number of the workload's
          nominal pass times that fit in --seconds (at least enough passes
          for jobs.MIN_JOBS jobs).  A fixed number of whole passes makes the
          job set depend on the seed and --seconds only, never on the speed
          of the machine, so every run has the seed's size mix
  trace   each job of the workload's first trace_passes passes runs
          traced and untraced back to back (alternating which goes first),
          so that the overhead is measured on the same jobs in the same
          machine state; spans go to --spans as JSON lines
  pool    every pinned variant of the workload once, in name order

In timed mode a calibration sample (calibration.py) is taken before the
first job and then after every CALIBRATE_EVERY_NS of job CPU time; each job
record names the latest sample.

Each job appends one JSON line to --results: phase, pass, job name, CPU
time and wall time of the main(argv) call in ns, exit code and SHA-256 of
stdout and stderr.  The first run of each job also carries the stdout and
stderr text, for the oracles.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jobs
from calibration import calibrate

CALIBRATE_EVERY_NS = 100_000_000  # job CPU time between calibrations


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Runner:
    def __init__(self, cli, pool, workdir, results, calibrated=False):
        self.cli = cli
        self.pool = pool
        self.results = results
        self.seen = set()
        self.seq = 0
        self.calibrated = calibrated
        self.calibrations = []  # calibrate() samples, in run order
        self._since_calibration = 0
        self.paths = {}
        for name, job in pool.items():
            path = Path(workdir) / (name.replace("/", "__") + ".cfg")
            path.write_text(job.config, encoding="utf-8")
            self.paths[name] = str(path)

    def run(self, names, phase, pass_index, tracer=None):
        """Run the named jobs in order; returns their summed CPU time."""
        total_ns = 0
        for name in names:
            if self.calibrated and (
                    not self.calibrations
                    or self._since_calibration >= CALIBRATE_EVERY_NS):
                self.calibrations.append(calibrate())
                self._since_calibration = 0
            job = self.pool[name]
            argv = job.argv(self.paths[name])
            out, err = io.StringIO(), io.StringIO()
            crash = None
            if tracer is not None:
                tracer.begin_job(self.seq, job.key)
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter_ns()
                cpu_start = time.process_time_ns()
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is reported, not raised
                    code = None
                    crash = traceback.format_exc()
                cpu = time.process_time_ns() - cpu_start
                elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.end_job()
            total_ns += cpu
            self._since_calibration += cpu
            stdout, stderr = out.getvalue(), err.getvalue() + (crash or "")
            rec = {"phase": phase, "pass": pass_index, "seq": self.seq,
                   "job": name, "cpu_ns": cpu, "wall_ns": elapsed,
                   "exit": code,
                   "out": _sha(stdout), "err": _sha(stderr)}
            if self.calibrated:
                rec["cal"] = len(self.calibrations) - 1
            if name not in self.seen:
                self.seen.add(name)
                rec["stdout"], rec["stderr"] = stdout, stderr
            self.results.write(json.dumps(rec) + "\n")
            self.seq += 1
        return total_ns


def _import_cli(root):
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import submodcurv.cli as cli
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"submodcurv imported from {cli.__file__}, "
                         f"not from {src}")
    return cli


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("timed", "trace", "pool"),
                    default="timed")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--results", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    cli = _import_cli(args.root)
    pool = jobs.pool(args.workload)
    summary = {}
    with open(args.results, "w", encoding="utf-8") as results:
        runner = Runner(cli, pool, args.workdir, results,
                        calibrated=args.mode == "timed")
        gc.collect()
        if args.mode == "pool":
            runner.run(sorted(pool), "pool", 0)
        elif args.mode == "timed":
            count = jobs.timed_passes(args.workload, args.seconds)
            for p in range(count):
                runner.run(jobs.schedule(args.workload, args.seed, p),
                           "timed", p)
            summary["passes"] = count
            summary["calibrations"] = runner.calibrations
            summary["peak_rss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss
        else:
            from tracing import Tracer
            count = jobs.WORKLOADS[args.workload]["trace_passes"]
            passes = [jobs.schedule(args.workload, args.seed, p)
                      for p in range(count)]
            tracer = Tracer()
            untraced = traced = 0
            for p, names in enumerate(passes):
                for k, name in enumerate(names):
                    if k % 2:
                        untraced += runner.run([name], "untraced", p)
                    tracer.install()
                    try:
                        traced += runner.run([name], "traced", p, tracer)
                    finally:
                        tracer.uninstall()
                    if not k % 2:
                        untraced += runner.run([name], "untraced", p)
            tracer.write(args.spans)
            summary.update(passes=count, untraced_ns=untraced,
                           traced_ns=traced)
        results.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
