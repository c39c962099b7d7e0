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

Jobs alternate one by one, and which tree runs first swaps on every job,
so a drift in machine speed falls on both sides alike.  Each job is one
``cli.main(argv)`` call per tree with stdout and stderr captured, timed by
the process CPU clock.  Any difference in stdout, stderr or exit code
stops the run with exit status 1.  The tool prints the change/parent CPU
ratio of every rep and of every slot (summed over all reps), then the
median of the rep ratios, their quartiles (``statistics.quantiles``) and
how many reps fell above and below 1; a ratio below 1 means the change is
faster.

The first pass of a rep warms both trees' caches as the benchmark
worker's earlier passes do; it is timed like every other pass.

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
import os
import statistics
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
    args = ap.parse_args(argv)
    if args.setup:
        return compare_setup(args.parent, args.change, args.setup)
    if args.workload is None:
        ap.error("give --workload or --setup")

    # argparse wraps its usage message to the terminal width; the pinned
    # bytes are those at 80 columns
    os.environ["COLUMNS"] = "80"
    jobs = load_jobs(args.change)
    pool = jobs.pool(args.workload)
    passes = jobs.timed_passes(args.workload, jobs.RUN_SECONDS)
    sides = (load_package(args.parent, "submodcurv_parent"),
             load_package(args.change, "submodcurv_change"))
    slot_cpu = defaultdict(lambda: [0, 0])
    rep_ratios = []
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as workdir:
        paths = {}
        for name, job in pool.items():
            path = Path(workdir, name.replace("/", "__") + ".cfg")
            path.write_text(job.config, encoding="utf-8")
            paths[name] = str(path)
        flip = 0
        for rep in range(args.reps):
            totals = [0, 0]
            for p in range(passes):
                for name in jobs.schedule(args.workload, args.seed + rep, p):
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
                        print(f"MISMATCH on {name}: {', '.join(differ)}")
                        return 1
                    slot = name.rsplit("/", 1)[0]
                    for side in (0, 1):
                        totals[side] += runs[side][0]
                        slot_cpu[slot][side] += runs[side][0]
            ratio = totals[1] / totals[0]
            rep_ratios.append(ratio)
            print(f"rep {rep} (seed {args.seed + rep}): parent "
                  f"{totals[0] / 1e6:.1f} ms, change {totals[1] / 1e6:.1f} "
                  f"ms, ratio {ratio:.3f}", flush=True)
    print("per slot (all reps):")
    for slot, (parent, change) in sorted(slot_cpu.items()):
        print(f"  {slot:32s} parent {parent / 1e6:9.1f} ms  change "
              f"{change / 1e6:9.1f} ms  ratio {change / parent:.3f}")
    print(f"median ratio over {len(rep_ratios)} reps: "
          f"{statistics.median(rep_ratios):.3f}")
    # quantiles needs two points; one rep is its own quartiles
    q1, _, q3 = (statistics.quantiles(rep_ratios, n=4)
                 if len(rep_ratios) > 1 else rep_ratios * 3)
    above = sum(r > 1 for r in rep_ratios)
    below = sum(r < 1 for r in rep_ratios)
    print(f"quartiles of the rep ratios: q1 {q1:.3f}, q3 {q3:.3f}; "
          f"{above} reps above 1, {below} below")
    return 0


if __name__ == "__main__":
    sys.exit(main())
