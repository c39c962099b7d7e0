"""In-process A/B comparison of two source trees on one benchmark workload.

    python3 tools/ab_inprocess.py --parent DIR --change DIR \
        --workload curvature-sweep --reps 5 [--seed N]
    python3 tools/ab_inprocess.py --parent DIR --change DIR --setup 15

Each DIR is the root of a source checkout: its ``src/submodcurv`` is
imported under its own package name (``submodcurv_parent`` and
``submodcurv_change``), so both trees live in one interpreter.  The jobs
are read from ``perfbench/jobs.py`` of the change tree, which this tool
loads by path and does not change: one rep runs the passes of the
workload's seeded schedule (``jobs.schedule``) that a benchmark run of
``jobs.RUN_SECONDS`` times (``jobs.timed_passes``), with the seed of rep r
being ``--seed + r``.

Every rep runs in a fresh interpreter (this file with ``--rep-seed``),
as the benchmark's worker does, so no cache a rep fills, in either tree,
is there at the start of the next: the first pass of each rep runs cold
for both trees, as the worker's first pass does, and is timed like every
other pass.  The interpreter prints the rep's job times as one JSON line.

Jobs alternate one by one, and which tree runs first swaps on every job,
so a drift in machine speed falls on both sides alike.  Each job is one
``cli.main(argv)`` call per tree with stdout and stderr captured, timed by
the process CPU clock.  Any difference in stdout, stderr or exit code
stops the run with exit status 1.  For every rep the tool prints three
change/parent ratios: of the summed CPU, and of the per-job 50th and 90th
percentiles (``statistics.quantiles``, as the benchmark reads job_p50_ms
and job_p90_ms).  Then the CPU ratio of every slot (summed over all reps),
and for each of the three ratios the median over the reps, the quartiles
and how many reps fell above and below 1; a ratio below 1 means the change
is faster.  Last, the slots that set the percentiles: for each tree, over
the jobs of all reps pooled, how many jobs of each slot took longer than
that tree's pooled 90th percentile and how many fell within 10% of its
pooled 50th.

With ``--setup N`` the tool times the benchmark's setup_s instead: N
fresh-interpreter imports of ``submodcurv.cli`` from each tree, launched
alternately, parent first, after one uncounted launch per tree that writes
the bytecode cache.  Each launch is ``measure_setup`` of the change
tree's ``perfbench/run.py``, loaded by path and not changed: its
SETUP_CODE, scaled by calibration.SPIN_REFERENCE_NS over the spin()
times around the import.  The tool prints each tree's median and
quartiles in seconds, the change/parent ratio of the medians and how many
pairs the change won.  One DIR given as both trees is an A/A run, whose
spread is the noise a real difference must clear.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def load_package(root, name):
    """The cli module of ROOT/src/submodcurv, imported as package NAME."""
    src = Path(root, "src", "submodcurv").resolve()
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def load_jobs(root):
    """ROOT/perfbench/jobs.py, loaded by path (perfbench/ is no package)."""
    spec = importlib.util.spec_from_file_location(
        "ab_jobs", Path(root, "perfbench", "jobs.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_setup_timer(root):
    """measure_setup of ROOT/perfbench/run.py, which imports its sibling
    modules by their bare names."""
    bench = str(Path(root, "perfbench").resolve())
    sys.path.insert(0, bench)
    spec = importlib.util.spec_from_file_location("ab_run",
                                                  Path(bench, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.measure_setup


def compare_setup(parent, change, launches):
    """Time setup_s of both trees, alternating launches, and print it."""
    measure = load_setup_timer(change)
    roots = (parent, change)
    for root in roots:
        measure(root, 1)  # writes the bytecode cache, as run.py discards it
    times = ([], [])
    for _ in range(launches):
        for side, root in enumerate(roots):
            times[side].extend(measure(root, 1))
    print(f"setup_s over {launches} launches per tree, alternating:")
    for label, values in zip(("parent", "change"), times):
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if launches > 1 else values * 3)
        print(f"  {label}: median {statistics.median(values):.4f} s, "
              f"q1 {q1:.4f}, q3 {q3:.4f}")
    wins = sum(c < p for p, c in zip(*times))
    print(f"median ratio change/parent "
          f"{statistics.median(times[1]) / statistics.median(times[0]):.3f}; "
          f"change lower in {wins} of {launches} pairs")
    return 0


def run_job(cli, argv):
    """(cpu_ns, exit code, stdout, stderr) of one cli.main(argv) call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.process_time_ns()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        cpu = time.process_time_ns() - start
    return cpu, code, out.getvalue(), err.getvalue()


def percentiles(values) -> tuple:
    """(p50, p90) of job times, read as the benchmark reads them."""
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8]


def run_rep(parent, change, workload, seed):
    """One rep in this interpreter: (per-job (slot, parent, change) CPU ns,
    slot -> [parent, change] ns), or a mismatch message."""
    # argparse wraps its usage message to the terminal width; the pinned
    # bytes are those at 80 columns
    os.environ["COLUMNS"] = "80"
    jobs = load_jobs(change)
    pool = jobs.pool(workload)
    passes = jobs.timed_passes(workload, jobs.RUN_SECONDS)
    sides = (load_package(parent, "submodcurv_parent"),
             load_package(change, "submodcurv_change"))
    times, slots = [], defaultdict(lambda: [0, 0])
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as workdir:
        paths = {}
        for name, job in pool.items():
            path = Path(workdir, name.replace("/", "__") + ".cfg")
            path.write_text(job.config, encoding="utf-8")
            paths[name] = str(path)
        flip = 0
        for p in range(passes):
            for name in jobs.schedule(workload, seed, p):
                job_argv = pool[name].argv(paths[name])
                order = (0, 1) if flip else (1, 0)
                flip ^= 1
                runs = {}
                for side in order:
                    runs[side] = run_job(sides[side], job_argv)
                differ = [what for what, a, b in zip(
                    ("exit code", "stdout", "stderr"), runs[0][1:],
                    runs[1][1:]) if a != b]
                if differ:
                    return f"MISMATCH on {name}: {', '.join(differ)}"
                slot = name.rsplit("/", 1)[0]
                times.append((slot, runs[0][0], runs[1][0]))
                slots[slot][0] += runs[0][0]
                slots[slot][1] += runs[1][0]
    return times, dict(slots)


def run_rep_in_fresh_interpreter(args, seed):
    """run_rep in a new interpreter running this file, read from the JSON
    line it prints."""
    cmd = [sys.executable, __file__, "--parent", args.parent, "--change",
           args.change, "--workload", args.workload, "--rep-seed",
           str(seed)]
    out = subprocess.run(cmd, check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return json.loads(out)


def summarize(label, ratios):
    # quantiles needs two points; one rep is its own quartiles
    q1, _, q3 = (statistics.quantiles(ratios, n=4)
                 if len(ratios) > 1 else ratios * 3)
    above = sum(r > 1 for r in ratios)
    below = sum(r < 1 for r in ratios)
    print(f"{label}: median {statistics.median(ratios):.3f}, quartiles "
          f"q1 {q1:.3f}, q3 {q3:.3f}; {above} reps above 1, {below} below")


def print_slot_mix(jobs):
    """Per slot, how many of the pooled (slot, parent, change) jobs of each
    tree took longer than its p90, and how many fell within 10% of its
    p50."""
    # per slot: above p90 (parent, change), within 10% of p50 (the same)
    counts = defaultdict(lambda: [0, 0, 0, 0])
    heads = []
    for side in (0, 1):
        values = [job[1 + side] for job in jobs]
        p50, p90 = percentiles(values)
        heads.append((p50, p90))
        for (slot, _, _), t in zip(jobs, values):
            counts[slot][side] += t > p90
            counts[slot][2 + side] += abs(t - p50) <= p50 / 10
    (p50p, p90p), (p50c, p90c) = heads
    print(f"slot mix of the {len(jobs)} pooled jobs: above p90 (parent "
          f"{p90p / 1e6:.3f} ms, change {p90c / 1e6:.3f} ms) and within 10% "
          f"of p50 (parent {p50p / 1e6:.3f} ms, change {p50c / 1e6:.3f} ms)")
    print(f"  {'slot':32s} {'>p90 parent':>11s} {'change':>7s} "
          f"{'~p50 parent':>11s} {'change':>7s}")
    for slot, (a, b, c, d) in sorted(counts.items()):
        print(f"  {slot:32s} {a:11d} {b:7d} {c:11d} {d:7d}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup", type=int, metavar="N",
                    help="time N fresh-interpreter imports per tree "
                         "instead of a workload")
    ap.add_argument("--rep-seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup:
        return compare_setup(args.parent, args.change, args.setup)
    if args.workload is None:
        ap.error("give --workload or --setup")
    if args.rep_seed is not None:
        print(json.dumps(run_rep(args.parent, args.change, args.workload,
                                 args.rep_seed)))
        return 0

    slot_cpu = defaultdict(lambda: [0, 0])
    ratios = {"CPU": [], "job p50": [], "job p90": []}
    pooled = []
    for rep in range(args.reps):
        seed = args.seed + rep
        result = run_rep_in_fresh_interpreter(args, seed)
        if isinstance(result, str):
            print(result)
            return 1
        times, slots = result
        pooled.extend(times)
        _, parent, change = zip(*times)
        rep_ratios = (sum(change) / sum(parent),
                      *(c / p for p, c in zip(percentiles(parent),
                                              percentiles(change))))
        for values, ratio in zip(ratios.values(), rep_ratios):
            values.append(ratio)
        for slot, (p, c) in slots.items():
            slot_cpu[slot][0] += p
            slot_cpu[slot][1] += c
        print(f"rep {rep} (seed {seed}): parent {sum(parent) / 1e6:.1f} ms, "
              f"change {sum(change) / 1e6:.1f} ms, ratio "
              f"{rep_ratios[0]:.3f}; job p50 ratio {rep_ratios[1]:.3f}, "
              f"job p90 ratio {rep_ratios[2]:.3f}", flush=True)
    print("per slot (all reps):")
    for slot, (parent, change) in sorted(slot_cpu.items()):
        print(f"  {slot:32s} parent {parent / 1e6:9.1f} ms  change "
              f"{change / 1e6:9.1f} ms  ratio {change / parent:.3f}")
    print_slot_mix(pooled)
    print(f"over {args.reps} reps:")
    for label, values in ratios.items():
        summarize(f"  {label} ratio", values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
