"""Every pooled job of the benchmark's three workloads
(perfbench/jobs.py), run in-process through the CLI one after another, must
still print what perfbench/pins.json pinned: the same exit code and the
same SHA-256 of stdout and stderr.  task-mix covers all seven tasks and
every exit-2/3/4 path, argparse errors included, through one parser.

Jobs listed as a known defect are pinned by exit code only; their values
are checked by the benchmark's oracle, not by bytes.  This test only reads
perfbench/.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import submodcurv.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("curvature-sweep", "kernel-eval", "task-mix")


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pooled_jobs_match_pins(workload, perfbench_jobs, tmp_path,
                                monkeypatch):
    jobs = perfbench_jobs
    # argparse wraps usage messages to the terminal width; pins use 80
    monkeypatch.setenv("COLUMNS", "80")
    with open(PERFBENCH / "pins.json", encoding="utf-8") as fh:
        pins = json.load(fh)["jobs"]
    pool = jobs.pool(workload)
    assert pool
    mismatched = []
    for name, job in sorted(pool.items()):
        pin = pins[job.key]
        assert pin["job"] == jobs.digest(job), job.key
        path = tmp_path / (name.replace("/", "__") + ".cfg")
        path.write_text(job.config, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(job.argv(str(path)))
            except SystemExit as exc:
                code = exc.code
        got = {"exit": code}
        if not job.known_defect:
            got.update(stdout=_sha(out.getvalue()),
                       stderr=_sha(err.getvalue()))
        want = {key: pin[key] for key in got}
        if got != want:
            mismatched.append(f"{job.key}: {got} != {want}")
    assert not mismatched, "\n".join(mismatched)
