"""Record pins.json from the current sources.

    python3 perfbench/pin.py

Runs every pooled job of every workload twice, in fresh interpreters with
different hash seeds, and records its exit code and the SHA-256 of its
stdout and stderr.  Nothing is written when the two runs differ, a valid job
does not exit 0, an invalid job exits other than 2, 3 or 4, an oracle fails,
or a job listed as a known defect passes its oracle.  Pins describe the
program as it was when they were recorded; re-record them only when the job
pool in jobs.py changes.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
import jobs
from run import HERE, import_package, run_worker


def main():
    oracles = check.Oracles(import_package())
    workdir = HERE / ".work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    pins, problems = {}, []
    try:
        for workload in jobs.WORKLOADS:
            pool = jobs.pool(workload)
            first, second = (
                {rec["job"]: rec for rec in
                 run_worker(workload, "pool", workdir, hash_seed=k)[0]}
                for k in (1, 2))
            for name, job in sorted(pool.items()):
                a, b = first[name], second[name]
                where = f"{workload}:{name}"
                if (a["exit"], a["out"], a["err"]) != (
                        b["exit"], b["out"], b["err"]):
                    problems.append(f"{where}: output depends on the hash seed")
                if job.valid != (a["exit"] == 0) or a["exit"] not in (0, 2, 3, 4):
                    problems.append(f"{where}: exit {a['exit']}: {a['stderr']}")
                found = oracles.failures(job, a["stdout"]) if a["exit"] == 0 else []
                defect = [f for f in found
                          if f[0] == check.KNOWN_DEFECT_ORACLE and job.known_defect]
                if job.known_defect and not defect:
                    problems.append(f"{where}: listed as a known defect but "
                                    "passes its oracle")
                problems += [f"{where}: {kind}: {msg}" for kind, msg in found
                             if (kind, msg) not in defect]
                pin = {"job": jobs.digest(job), "exit": a["exit"]}
                if not job.known_defect:
                    pin.update(stdout=a["out"], stderr=a["err"])
                pins[job.key] = pin
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(f"{len(problems)} problems; pins.json not written",
              file=sys.stderr)
        return 1
    with open(HERE / "pins.json", "w", encoding="utf-8") as fh:
        json.dump({"python": sys.version.split()[0], "jobs": pins}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
