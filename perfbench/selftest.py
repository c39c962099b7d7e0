"""Self-test of the benchmark's generator and checker.

    python3 perfbench/selftest.py

Checks that one seed always generates the same jobs, then runs one real job
per oracle through the worker and shows that a flipped report byte, a wrong
exit code and an oracle mismatch (with the tampered report re-pinned, so only
the oracle can see it) each raise failed_frac, and that fixing the known
defect lowers it.  Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import sys

import check
import jobs
import worker
from run import HERE, ROOT, import_package, load_pins

# (workload, slot, result to tamper, function giving the tampered value)
CASES = [
    ("curvature-sweep", "curv-coord-m2-D4", "curvature_block_11_11",
     lambda v: v + 1),
    ("kernel-eval", "kern-int-monomial-m2", "kernel_diag_1", lambda v: v + 1),
    ("task-mix", "cubic", "isolating_interval_1",
     lambda v: [v[1] + 1, v[1] + 2]),
    ("task-mix", "compare-lambda-mu", "equivalent", lambda v: not v),
    ("task-mix", "dim-product-difference", "localization_dim_1",
     lambda v: v + 1),
]
DEFECT = ("curvature-sweep", "curv-principal-offbase-m2/v00")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()




def _render(value):
    if isinstance(value, list):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    return str(value)


def tamper(stdout, name, fn):
    """Replace one result value in a text report."""
    old = check.parse_results(stdout)[name]
    lines = stdout.splitlines(keepends=True)
    for k, line in enumerate(lines):
        if line.startswith(f"  {name} = "):
            lines[k] = f"  {name} = {_render(fn(old))}\n"
    return "".join(lines)


def verdict_for(records, pins, oracles):
    pools = {w: jobs.pool(w) for w in jobs.WORKLOADS}
    merged = {}
    by_workload = {}
    for workload, rec in records:
        by_workload.setdefault(workload, []).append(rec)
    total = check.Verdict()
    for workload, recs in by_workload.items():
        v = check.check_records(recs, pools[workload], pins, oracles)
        total.attempted += v.attempted
        total.failed += v.failed
        total.defect_open += v.defect_open
        total.reasons += v.reasons
        merged.update(v.defects)
    total.defects = merged
    return total


def run_jobs(selected, workdir):
    """Run (workload, job) pairs through worker.Runner; returns records."""
    cli = worker._import_cli(ROOT)
    records = []
    for workload, job in selected:
        results = workdir / "results.jsonl"
        with open(results, "w", encoding="utf-8") as fh:
            runner = worker.Runner(cli, {job.name: job}, workdir, fh)
            runner.run([job.name], "selftest", 0)
        rec = json.loads(results.read_text(encoding="utf-8"))
        records.append((workload, rec))
    return records


def main():
    failures = []

    def expect(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    for workload in jobs.WORKLOADS:
        a = [jobs.schedule(workload, 7, p) for p in range(4)]
        b = [jobs.schedule(workload, 7, p) for p in range(4)]
        other = [jobs.schedule(workload, 8, p) for p in range(4)]
        pa, pb = jobs.pool(workload), jobs.pool(workload)
        same_jobs = all(pa[n] == pb[n] and pa[n].meta == pb[n].meta
                        for n in pa)
        expect(a == b and same_jobs and pa.keys() == pb.keys(),
               f"{workload}: one seed generates identical job sets")
        expect(a != other, f"{workload}: another seed generates other jobs")

    selected = [(w, jobs.pool(w)[slot + "/v00"]) for w, slot, _, _ in CASES]
    selected.append((DEFECT[0], jobs.pool(DEFECT[0])[DEFECT[1]]))
    workdir = HERE / ".work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        records = run_jobs(selected, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pins = load_pins()
    oracles = check.Oracles(import_package())
    base = verdict_for(records, pins, oracles)
    expect(base.failed == 0 and base.defect_open == 1,
           f"untouched reports pass, with the one open defect "
           f"(failed_frac {base.failed_frac:.3f})")

    for k, (workload, rec) in enumerate(records[:-1]):
        name = rec["job"]
        flipped = copy.deepcopy(records)
        out = rec["stdout"]
        pos = out.index("results:") + len("results:") + 3
        changed = out[:pos] + chr(ord(out[pos]) ^ 1) + out[pos + 1:]
        flipped[k][1].update(stdout=changed, out=_sha(changed))
        v = verdict_for(flipped, pins, oracles)
        expect(v.failed_frac > base.failed_frac,
               f"{workload}:{name}: a flipped report byte raises failed_frac")

        wrong = copy.deepcopy(records)
        wrong[k][1]["exit"] = 3
        v = verdict_for(wrong, pins, oracles)
        expect(v.failed_frac > base.failed_frac,
               f"{workload}:{name}: a wrong exit code raises failed_frac")

        _, _, result, fn = CASES[k]
        bad = tamper(out, result, fn)
        mismatch = copy.deepcopy(records)
        mismatch[k][1].update(stdout=bad, out=_sha(bad))
        repinned = copy.deepcopy(pins)
        repinned[f"{workload}:{name}"]["stdout"] = _sha(bad)
        v = verdict_for(mismatch, repinned, oracles)
        only_oracle = not any(r.startswith(("stdout", "pin", "exit"))
                              for _, r in v.reasons)
        expect(v.failed_frac > base.failed_frac and only_oracle,
            f"{workload}:{name}: an oracle mismatch in {result} raises "
            f"failed_frac with the report re-pinned")

    workload, rec = records[-1]
    res = check.parse_results(rec["stdout"])
    fixed_out = tamper(rec["stdout"], "transverse_log_hessian",
                       lambda v: res["det_bundle_curvature_22"])
    fixed = copy.deepcopy(records)
    fixed[-1][1].update(stdout=fixed_out, out=_sha(fixed_out))
    v = verdict_for(fixed, pins, oracles)
    expect(v.failed_frac < base.failed_frac and v.failed == 0
           and v.defects[rec["job"]] == "fixed",
           f"{workload}:{rec['job']}: fixing the known defect lowers "
           f"failed_frac ({base.failed_frac:.3f} -> {v.failed_frac:.3f})")

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
