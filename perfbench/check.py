"""Output checks: pinned bytes and independent oracles.

Every job run is checked against its pin (exit code, SHA-256 of stdout and
stderr, recorded from the seed commit by pin.py) and, where one applies,
against an oracle computed through public submodcurv functions:

  curvature   the blockwise trace of the curvature blocks equals the
              det-bundle curvature; on the bidisc coordinate ideal the
              det-bundle diagonal equals lambda_mu_invariants; on a
              principal bidisc ideal transverse_log_hessian equals
              det_bundle_curvature_22 (the known defect, see jobs.py)
  kernel      integer-weight monomial ideals: the Gram-form kernel at degree
              D equals the degree-D diagonal partial sum of
              DiagonalFilteredKernel, and the reported closed form differs
              from it by no more than the partial sum's remainder bound
              (and by a nonnegative amount on the diagonal)
  cubic       exactly one positive root, with a sign change across its
              isolating interval (or an interval [r, r] with p(r) = 0)
  compare     equivalent is true iff the two weight vectors are equal
  dimension   product_difference on the bidisc: 2 at the origin, 1 off it;
              a principal ideal: 1 everywhere

Jobs marked as a known defect are checked by their oracle and exit code,
not by bytes; while the defect is open they count in failed_frac but not as
unexpected failures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

import jobs

KNOWN_DEFECT_ORACLE = "transverse_pair"
ORACLE_DEGREE_MARGIN = 2  # Gram-form oracle degree = max generator degree + 2


# ---------------------------------------------------------------------------
# Report parsing


def _value(text):
    text = text.strip()
    if text in ("True", "False"):
        return text == "True"
    if text.startswith("[") and text.endswith("]"):
        return [_value(x) for x in text[1:-1].split(",") if x.strip()]
    try:
        return Fraction(text)
    except ValueError:
        return text


_RESULT_LINE = re.compile(r"^  (\w+) = (.*?)(?: \[[^\]]*\])?$")


def parse_results(stdout: str) -> dict:
    """name -> value of the text report's results section."""
    out, inside = {}, False
    for line in stdout.splitlines():
        if not line.startswith(" "):
            inside = line == "results:"
            continue
        if inside:
            match = _RESULT_LINE.match(line)
            if match:
                out[match.group(1)] = _value(match.group(2))
    return out


# ---------------------------------------------------------------------------
# Oracles


class Oracles:
    """Oracle checks; caches the Gram-form kernels it builds."""

    def __init__(self, sm):
        self.sm = sm  # the submodcurv package
        self._gram = {}

    def failures(self, job, stdout):
        """[(oracle name, message)] for a job that exited 0."""
        check = getattr(self, "_" + job.task, None)
        if check is None:
            return []
        try:
            results = parse_results(stdout)
            return check(job.meta, results)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            return [("report", f"unreadable report: {exc!r}")]

    def _curvature(self, meta, res):
        out = []
        m = meta["m"]
        t = sum(1 for k in res if k.startswith("curvature_block_11_"))
        t = int(round(t ** 0.5))
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                trace = sum((res[f"curvature_block_{i}{j}_{a}{a}"]
                             for a in range(1, t + 1)), Fraction(0))
                det = res[f"det_bundle_curvature_{i}{j}"]
                if trace != det:
                    out.append(("trace_identity",
                                f"block trace ({i},{j}) = {trace} but "
                                f"det_bundle_curvature = {det}"))
        if m == 2 and meta["gens"] == ["z1", "z2"]:
            inv = self.sm.lambda_mu_invariants(*map(Fraction, meta["weights"]))
            got = (res["det_bundle_curvature_11"], res["det_bundle_curvature_22"])
            if got != inv.as_pair():
                out.append(("lambda_mu", f"det-bundle diagonal {got} != "
                                         f"closed form {inv.as_pair()}"))
        if "transverse_log_hessian" in res:
            got = res["transverse_log_hessian"]
            want = res["det_bundle_curvature_22"]
            if got != want:
                out.append((KNOWN_DEFECT_ORACLE,
                            f"transverse_log_hessian = {got} but "
                            f"det_bundle_curvature_22 = {want}"))
        return out

    def _kernel(self, meta, res):
        sm = self.sm
        m = meta["m"]
        weights = tuple(Fraction(w) for w in meta["weights"])
        if any(w.denominator != 1 for w in weights) or not meta["gens"]:
            return []
        polys = [sm.parse_poly(g, m) for g in meta["gens"]]
        if not all(p.is_monomial() for p in polys):
            return []
        exps = tuple(tuple(p.monomial_exponent()) for p in polys)
        module = sm.WeightedPolydiscModule(m, weights)
        D = max(sum(e) for e in exps) + ORACLE_DEGREE_MARGIN
        key = (weights, exps)
        if key not in self._gram:
            self._gram[key] = sm.GramFormKernel.from_ideal(
                module, sm.IdealSpec.monomial(m, exps), D)
        gram = self._gram[key]
        diag = sm.DiagonalFilteredKernel(module, exps)
        pts = [tuple(Fraction(x) for x in p) for p in meta["points"]]
        pairs = [(f"kernel_diag_{k}", p, p) for k, p in enumerate(pts, 1)]
        if len(pts) >= 2:
            pairs.append(("kernel_offdiag_12", pts[0], pts[1]))
        out = []
        for name, z, w in pairs:
            partial = diag.eval_truncated(z, w, D)
            g = gram.eval_exact(z, w)
            if g != partial.value:
                out.append(("gram_vs_diagonal",
                            f"{name}: Gram form {g} != diagonal partial sum "
                            f"{partial.value} at degree {D}"))
            gap = res[name] - g
            if abs(gap) > partial.bound or (z == w and gap < 0):
                out.append(("closed_form_tail",
                            f"{name}: closed form {res[name]} is {gap} from "
                            f"the degree-{D} sum; tail bound {partial.bound}"))
        return out

    def _cubic(self, meta, res):
        a = Fraction(meta["alpha"])
        if res["positive_root_count"] != 1:
            return [("cubic", f"{res['positive_root_count']} positive roots")]
        lo, hi = res["isolating_interval_1"]

        def p(x):
            return x ** 3 - (3 * a - 2) * x ** 2 - (2 * a - 3) * x - a
        exact = 0 < lo == hi and p(lo) == 0  # a rational root, found exactly
        if not (exact or 0 <= lo < hi and p(lo) * p(hi) < 0):
            return [("cubic", f"no sign change on [{lo}, {hi}]")]
        return []

    def _compare(self, meta, res):
        left = [Fraction(w) for w in meta["weights"]]
        right = [Fraction(w) for w in meta["compare"]]
        if res["equivalent"] != (left == right):
            return [("rigidity", f"equivalent = {res['equivalent']} for "
                                 f"weights {meta['weights']} vs "
                                 f"{meta['compare']}")]
        return []

    def _dimension(self, meta, res):
        pts = [[Fraction(x) for x in p] for p in meta["points"]]
        if meta["catalogue"] == "product_difference" and meta["m"] == 2:
            want = [2 if not any(p) else 1 for p in pts]
        elif meta["gens"] is not None and len(meta["gens"]) == 1:
            want = [1] * len(pts)
        else:
            return []
        got = [res[f"localization_dim_{k}"] for k in range(1, len(pts) + 1)]
        if got != want:
            return [("localization", f"dimensions {got}, expected {want}")]
        return []


# ---------------------------------------------------------------------------
# Checking a run


@dataclass
class Verdict:
    """Counts over job runs.  ``failed`` counts runs that fail any check
    other than an open known defect; ``defect_open`` counts runs whose only
    problem is their listed known defect.  failed_frac counts both."""
    attempted: int = 0
    failed: int = 0
    defect_open: int = 0
    reasons: list = field(default_factory=list)   # (job, message)
    defects: dict = field(default_factory=dict)   # job -> open / fixed

    @property
    def failed_frac(self):
        return (self.failed + self.defect_open) / max(self.attempted, 1)


def check_records(records, pool, pins, oracles):
    """Check every job run in ``records`` (dicts written by worker.py)."""
    verdict = Verdict()
    first = {}
    per_job = {}
    for rec in records:
        name = rec["job"]
        job = pool[name]
        if name not in first:
            first[name] = rec
            per_job[name] = _job_problems(job, rec, pins.get(job.key), oracles)
        problems = list(per_job[name])
        head = first[name]
        if rec is not head and (rec["exit"], rec["out"], rec["err"]) != (
                head["exit"], head["out"], head["err"]):
            problems.append(("determinism", "output differs from this job's "
                                            "first run"))
        defect = [p for p in problems if job.known_defect
                  and p[0] == KNOWN_DEFECT_ORACLE]
        others = [p for p in problems if p not in defect]
        verdict.attempted += 1
        if job.known_defect:
            verdict.defects[name] = "open" if defect else "fixed"
        if others:
            verdict.failed += 1
            verdict.reasons += [(name, f"{kind}: {msg}") for kind, msg in others]
        elif defect:
            verdict.defect_open += 1
    return verdict


def _job_problems(job, rec, pin, oracles):
    problems = []
    if pin is None:
        return [("pin", "no pin recorded for this job")]
    if pin["job"] != jobs.digest(job):
        problems.append(("pin", "job definition changed since it was pinned"))
    if rec["exit"] != pin["exit"]:
        problems.append(("exit", f"exit code {rec['exit']}, pinned "
                                 f"{pin['exit']}"))
    if not job.known_defect:
        if rec["out"] != pin["stdout"]:
            problems.append(("stdout", "stdout bytes differ from the pin"))
        if rec["err"] != pin["stderr"]:
            problems.append(("stderr", "stderr bytes differ from the pin"))
    if job.valid and rec["exit"] != 0:
        problems.append(("exit", f"valid job exited {rec['exit']}"))
    if not job.valid and rec["exit"] not in (2, 3, 4):
        problems.append(("exit", f"invalid job exited {rec['exit']}, "
                                 "expected 2, 3 or 4"))
    if rec["exit"] == 0 and job.valid:
        problems += oracles.failures(job, rec["stdout"])
    return problems
