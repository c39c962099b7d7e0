"""Seeded job generator for the submodcurv benchmark.

A workload is a list of slots.  A slot is one kind of CLI job at fixed
sizes (task, dimension m, truncation degree D, ideal degree N, number of
points); it owns a pool of variants that differ in the seeded numbers only
(weights, base points, evaluation points, generator exponents).  Variants are
built from a fixed per-slot stream, so every variant has a stable name and
its report bytes can be pinned once (``pins.json``).

One pass of a workload runs ``count`` distinct variants of every slot.  Each
slot walks through its own seeded permutation of its variants and the seed
shuffles every pass, so the same seed always gives the same job sequence,
a run uses the variants about equally often, and the size mix is the same
for every seed.  That fixed mix is what keeps medians and percentiles steady
from one seed to the next.

A slot's pool holds at least as many variants as a run of RUN_SECONDS
takes from it, and no two variants of a workload have the same config, so
no job of such a run repeats an earlier one exactly: a cache of whole job
results would find nothing to reuse.  Jobs that share a (module, ideal) do
so on purpose, and run.py prints their share.

Why these workloads:
  curvature-sweep  frames -> Grammian -> series inverse, log and det, up to
                   m=5; the 2-jet curvature (ROADMAP item 2) shows here,
                   and no rank or Gram-form work runs
  kernel-eval      Gram-form build (rank per candidate, ROADMAP item 4) and
                   diagonal sums (item 3), with no frames or curvature; a
                   curvature-only change must leave it alone, and the
                   printed share of jobs reusing an earlier kernel is what
                   a cross-job cache could at most exploit
  task-mix         many small jobs over all seven tasks: the fixed per-job
                   cost (parse, validation, construction, rendering) and the
                   code the other two never call (localization, Sturm
                   isolation, the rigidity battery), plus invalid jobs that
                   must exit 2, 3 or 4
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

INT_WEIGHTS = ("1", "2", "3")
HALF_WEIGHTS = ("1/2", "3/2", "5/2")
BASE_VALUES = ("1/2", "1/3", "1/4", "2/5", "-1/3", "-1/5", "3/7", "1/6")
POINT_VALUES = ("0", "1/2", "1/3", "1/4", "1/5", "2/5", "-1/3", "-1/4",
                "1/7", "3/8", "-2/7", "1/6")
# task-mix weights: a wider pool, so that its many small jobs stay distinct
MIX_WEIGHTS = tuple(str(k) for k in range(1, 7)) + tuple(
    f"{k}/2" for k in range(1, 12, 2))
MIN_VARIANTS = 12  # smallest pool of a slot
RUN_SECONDS = 25  # run_seconds in BENCHMARK.json: pools serve such a run
MIN_JOBS = 110  # jobs in a timed run, at least: ten beyond its 90th percentile
MAX_DRAWS = 500  # draws for one variant before its slot counts as exhausted


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``submodcurv <task> --config FILE <extra...>``."""
    workload: str
    name: str                 # "<slot>/vNN", unique within the workload
    task: str
    config: str               # text of the config file
    extra: tuple = ()         # command-line flags after --config FILE
    valid: bool = True        # False: must exit 2, 3 or 4
    known_defect: str = ""    # non-empty: checked by its oracle, not by bytes
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return f"{self.workload}:{self.name}"

    def argv(self, config_path: str) -> list:
        return [self.task, "--config", config_path, *self.extra]


@dataclass(frozen=True)
class Slot:
    name: str
    count: int                # distinct variants per pass
    make: object              # make(rng) -> dict of job fields
    known_defect: str = ""
    first: object = None      # optional fixed variant 0: first() -> fields


# ---------------------------------------------------------------------------
# Config text and the metadata the checker and the size summary read


def _vec(values) -> str:
    return " ".join(str(v) for v in values)


def _config(task, m=None, weights=None, gens=None, catalogue=None,
            points=None, base=None, D=None, N=None, alpha=None,
            compare=None, extra_task=()) -> str:
    lines = []
    if m is not None:
        lines += ["[module]", f"dimension = {m}", f"weights = {_vec(weights)}",
                  ""]
    if gens is not None or catalogue is not None:
        lines.append("[ideal]")
        if catalogue is not None:
            lines.append(f"catalogue = {catalogue}")
        else:
            lines.append(f"generators = {', '.join(gens)}")
        lines.append("")
    lines += ["[task]", f"name = {task}"]
    if points is not None:
        lines.append("points = " + "; ".join(_vec(p) for p in points))
    if base is not None:
        lines.append(f"base_point = {_vec(base)}")
    if D is not None:
        lines.append(f"trunc_degree = {D}")
    if N is not None:
        lines.append(f"ideal_degree = {N}")
    if alpha is not None:
        lines.append(f"alpha = {alpha}")
    if compare is not None:
        lines.append(f"compare_weights = {_vec(compare)}")
    lines += list(extra_task)
    return "\n".join(lines) + "\n"


def _job(task, m=None, weights=None, gens=None, catalogue=None, points=None,
         base=None, D=None, N=None, alpha=None, compare=None, extra=(),
         valid=True, config=None):
    """Job fields plus metadata.  Reports use the CLI's default text
    rendering."""
    if config is None:
        config = _config(task, m, weights, gens, catalogue, points, base, D,
                         N, alpha, compare)
    meta = {
        "m": m,
        "weights": list(weights) if weights is not None else None,
        "gens": list(gens) if gens is not None else None,
        "catalogue": catalogue,
        "points": [list(p) for p in points] if points is not None else None,
        "base": list(base) if base is not None else None,
        "D": D if D is not None else 6,
        "N": N if N is not None else 6,
        "alpha": alpha,
        "compare": list(compare) if compare is not None else None,
    }
    return dict(task=task, config=config, extra=tuple(extra), valid=valid,
                meta=meta)


def _weights(rng, m, fractional=None):
    """Seeded integer and half-integer weights.  fractional=True forces at
    least one half-integer, False forbids them, None lets the draw decide."""
    pool = INT_WEIGHTS + HALF_WEIGHTS if fractional is not False else INT_WEIGHTS
    ws = [rng.choice(pool) for _ in range(m)]
    if fractional and not any(w in HALF_WEIGHTS for w in ws):
        ws[rng.randrange(m)] = rng.choice(HALF_WEIGHTS)
    return ws


def _mix_weights(rng, m):
    return [rng.choice(MIX_WEIGHTS) for _ in range(m)]


def _point(rng, m):
    return [rng.choice(POINT_VALUES) for _ in range(m)]


def _points(rng, m, count):
    return [_point(rng, m) for _ in range(count)]


def _coord_gens(m):
    return [f"z{i + 1}" for i in range(m)]


def _power_gens(powers):
    return [f"z{i + 1}" if p == 1 else f"z{i + 1}^{p}"
            for i, p in enumerate(powers)]


def _zero_set_base(rng, m, t, nonzero):
    """Base point on the zero variety of <z1^p1..zt^pt>: generator slots 0,
    free slots seeded (all 0 unless nonzero)."""
    return ["0"] * t + [rng.choice(BASE_VALUES) if nonzero else "0"
                        for _ in range(m - t)]


# ---------------------------------------------------------------------------
# Slot makers


def coord(task, m, D):
    """Full coordinate ideal <z1..zm> around the origin."""
    def make(rng):
        return _job(task, m, _weights(rng, m), _coord_gens(m), D=D)
    return make


def zero_set(task, m, t, D, nonzero=True, powers=(1, 2, 3)):
    """Coordinate-power ideal <z1^p1..zt^pt> at a zero-variety base point."""
    def make(rng):
        ps = [rng.choice(powers) for _ in range(t)]
        base = _zero_set_base(rng, m, t, nonzero and rng.random() < 0.75)
        return _job(task, m, _weights(rng, m), _power_gens(ps), base=base,
                    D=D)
    return make


def principal_bidisc(D_choices, nonzero):
    """<z1^p> on the bidisc: the report carries the transverse pair."""
    def make(rng):
        p = rng.choice((1, 2, 3))
        base = ["0", rng.choice(BASE_VALUES) if nonzero else "0"]
        return _job("curvature", 2, _weights(rng, 2), _power_gens([p]),
                    base=base, D=rng.choice(D_choices))
    return make


def documented_defect():
    """The documented case: weights (1, 2), <z1^2>, base (0, 1/2), where
    det_bundle_curvature_22 = 32/9 but the transverse pair is computed at
    the origin."""
    return _job("curvature", 2, ["1", "2"], ["z1^2"], base=["0", "1/2"], D=4)


MONOMIAL_M2 = (["z1^2", "z2^3"], ["z1"], ["z1*z2"], ["z1^2", "z1*z2"],
               ["z2^2", "z1^3*z2"], ["z1", "z2^2"], ["z1^2*z2^2"],
               ["z1^3", "z2"])
MONOMIAL_M3 = (["z1^2", "z2*z3"], ["z1", "z2"], ["z1*z2*z3"],
               ["z1^2", "z2^2", "z3"], ["z3^2", "z1*z2"], ["z2"])
GENERAL_M2 = (["z1^2 - z2"], ["z1^2 - z2", "z1*z2"], ["z1^2 + z2^2", "z1*z2^2"],
              ["z1*z2 - z2^3"], ["z1 - z2^2", "z1*z2"], ["z1^3 - z2^2"])
# two-generator bidisc ideals and three-variable ideals of similar Gram cost
GENERAL_M2_PAIRS = (["z1^2 - z2", "z1*z2"], ["z1^2 + z2^2", "z1*z2^2"],
                    ["z1 - z2^2", "z1*z2"])
GENERAL_M3 = (["z1*z2 - z3^2"], ["z1 - z2*z3"])
KERNEL_WEIGHTS_M2 = (["1", "2"], ["3/2", "2"], ["2", "1"])


def monomial_kernel(m, fractional, npoints):
    """Monomial ideal kernel: closed form at integer weights, truncated
    diagonal sums (with a remainder bound) at fractional ones."""
    ideals = MONOMIAL_M2 if m == 2 else MONOMIAL_M3

    def make(rng):
        k = rng.choice(npoints)
        return _job("kernel", m, _weights(rng, m, fractional),
                    rng.choice(ideals), points=_points(rng, m, k))
    return make


def rank_one_kernel(m_choices, fractional, npoints):
    """Vanishing ideal of a point: rank-one corrected ambient kernel."""
    def make(rng):
        m = rng.choice(m_choices)
        a = [rng.choice(("0",) + POINT_VALUES[1:6]) for _ in range(m)]
        gens = [f"z{i + 1}" if x == "0" else
                (f"z{i + 1} + {x[1:]}" if x.startswith("-")
                 else f"z{i + 1} - {x}") for i, x in enumerate(a)]
        return _job("kernel", m, _weights(rng, m, fractional), gens,
                    points=_points(rng, m, rng.choice(npoints)))
    return make


def gram_kernel(m, N, ideals, npoints, weight_pool=None):
    """Gram-form kernel (catalogued or general ideal) at ideal degree N.
    A small weight pool makes several jobs share one (module, ideal, N)."""
    def make(rng):
        ws = (list(rng.choice(weight_pool)) if weight_pool
              else _weights(rng, m))
        ideal = rng.choice(ideals)
        pts = _points(rng, m, rng.choice(npoints))
        if ideal == "product_difference":
            return _job("kernel", m, ws, catalogue=ideal, points=pts, N=N)
        return _job("kernel", m, ws, ideal, points=pts, N=N)
    return make


def cubic():
    """The rigidity cubic at a seeded positive rational alpha."""
    def make(rng):
        alpha = Fraction(rng.randint(1, 200), rng.randint(1, 50))
        return _job("cubic", alpha=str(alpha))
    return make


def dimension_product_difference():
    """product_difference on the bidisc: 2 at the origin, 1 off it."""
    def make(rng):
        pts = [["0", "0"]] + _points(rng, 2, rng.choice((1, 2)))
        rng.shuffle(pts)
        return _job("dimension", 2, _mix_weights(rng, 2),
                    catalogue="product_difference", points=pts)
    return make


def dimension_principal():
    """A principal monomial ideal: localization dimension 1 everywhere."""
    def make(rng):
        i = rng.randrange(2)
        p = rng.choice((1, 2, 3))
        gen = f"z{i + 1}" if p == 1 else f"z{i + 1}^{p}"
        on = ["0", "0"]
        on[1 - i] = rng.choice(POINT_VALUES)
        pts = [on] + _points(rng, 2, rng.choice((0, 1)))
        return _job("dimension", 2, _mix_weights(rng, 2), [gen], points=pts)
    return make


def dimension_other():
    """Coordinate powers in three variables or a general bidisc ideal."""
    def make(rng):
        if rng.random() < 0.5:
            ps = [rng.choice((1, 2)) for _ in range(2)]
            pts = [["0", "0", rng.choice(POINT_VALUES)], _point(rng, 3)]
            return _job("dimension", 3, _mix_weights(rng, 3),
                        _power_gens(ps), points=pts)
        pts = [["0", "0"], _point(rng, 2)]
        return _job("dimension", 2, _mix_weights(rng, 2),
                    rng.choice(GENERAL_M2), points=pts)
    return make


def compare_lambda_mu():
    """Bidisc coordinate ideal compared through (kappa1, kappa2)."""
    def make(rng):
        ws = _mix_weights(rng, 2)
        other = list(ws) if rng.random() < 0.35 else _mix_weights(rng, 2)
        return _job("compare", 2, ws, _coord_gens(2), compare=other)
    return make


def compare_battery():
    """Coordinate powers with a transverse direction, polydisc battery at
    trunc 4."""
    def make(rng):
        m = rng.choice((2, 3))
        t = rng.randrange(1, m)
        ws = _mix_weights(rng, m)
        other = list(ws) if rng.random() < 0.35 else _mix_weights(rng, m)
        ps = [rng.choice((1, 2)) for _ in range(t)]
        return _job("compare", m, ws, _power_gens(ps), compare=other, D=4)
    return make


def small_frame(task, m_choices, D_choices):
    """decompose / metric at small sizes: coordinate or zero-set frame."""
    def make(rng):
        m = rng.choice(m_choices)
        D = rng.choice(D_choices)
        if rng.random() < 0.5:
            return _job(task, m, _mix_weights(rng, m), _coord_gens(m), D=D)
        t = rng.randrange(1, m)
        ps = [rng.choice((1, 2)) for _ in range(t)]
        base = _zero_set_base(rng, m, t, rng.random() < 0.5)
        return _job(task, m, _mix_weights(rng, m), _power_gens(ps), base=base,
                    D=D)
    return make


def small_curvature():
    """Curvature at m=2, D=4: coordinate ideal or <z1^p> at the origin."""
    def make(rng):
        ws = _mix_weights(rng, 2)
        if rng.random() < 0.5:
            return _job("curvature", 2, ws, _coord_gens(2), D=4)
        p = rng.choice((1, 2, 3))
        return _job("curvature", 2, ws, _power_gens([p]), base=["0", "0"],
                    D=4)
    return make


def small_kernel():
    """Closed-form kernels: integer-weight monomial or point ideals."""
    mono = monomial_kernel(2, False, (1, 2, 3))
    point = rank_one_kernel((2, 3), False, (1, 2))

    def make(rng):
        return (mono if rng.random() < 0.6 else point)(rng)
    return make


def _invalid_cases(rng):
    """Malformed or out-of-contract jobs, one template per exit path."""
    ws = _mix_weights(rng, 2)
    cases = [
        # exit 2: config errors
        lambda: _job("curvature", config=_config(
            "curvature", 2, ws, _coord_gens(2), extra_task=["colour = red"])),
        lambda: _job("curvature", config=_config(
            "curvature", 2, [ws[0], "-" + ws[1]], _coord_gens(2))),
        lambda: _job("kernel", 2, ws, ["z1", "z2^2"],
                     points=[[rng.choice(("1", "-1", "3/2")), "0"]]),
        lambda: _job("metric", config=_config(
            "metric", 3, ws, _coord_gens(2))),
        lambda: _job("kernel", 2, ws, ["z1^", "z2"], points=[["0", "0"]]),
        lambda: _job("compare", 2, ws, _coord_gens(2),
                     compare=ws + ["1"]),
        lambda: _job("cubic", config="[task]\nname = cubic\n"),
        lambda: _job("curvature", 2, ws, _coord_gens(2),
                     extra=("--trunc-degree", rng.choice(("x", "4.5")))),
        lambda: _job("dimension", config=_config(
            "dimension", 2, ws, catalogue="no_such_ideal",
            points=[["0", "0"]])),
        lambda: _job("decompose", config=(
            f"[module]\ndimension = 2\nweights = {_vec(ws)}\n\n"
            "[ideal]\ngenerators = z1, z2\n")),
        # exit 3: mathematical preconditions
        lambda: _job("curvature", 2, ws, _coord_gens(2), D=3),
        lambda: _job("curvature", 2, ws, _coord_gens(2),
                     base=[rng.choice(BASE_VALUES), "0"]),
        lambda: _job("metric", 2, ws, ["z1^2"],
                     base=[rng.choice(BASE_VALUES), "0"]),
        lambda: _job("cubic", alpha=rng.choice(("-1", "0", "-7/3"))),
        # exit 4: ideal family outside the task's closed forms
        lambda: _job("curvature", 2, ws, rng.choice(GENERAL_M2)),
        lambda: _job("decompose", 2, ws, catalogue="product_difference"),
        lambda: _job("compare", 3, ws + ["1"], _coord_gens(3),
                     compare=ws + ["2"]),
        lambda: _job("metric", 2, ws, ["z1*z2"]),
    ]
    return cases


def invalid():
    def make(rng):
        cases = _invalid_cases(rng)
        fields = rng.choice(cases)()
        fields["valid"] = False
        return fields
    return make


# ---------------------------------------------------------------------------
# Workloads

PRINCIPAL_DEFECT = ("ROADMAP item 5: curvature on a principal power ideal at "
                    "a nonzero base_point reports transverse_log_hessian at "
                    "the origin; oracle transverse_log_hessian == "
                    "det_bundle_curvature_22")

WORKLOADS = {
    "curvature-sweep": dict(
        why=("frames -> Grammian -> series inverse, log and det at m=2..5, "
             "D=4/6; no rank or Gram-form work"),
        pass_seconds=2.8,  # one pass at the seed commit, 2-vCPU VM
        trace_passes=3,
        # m=5, D=4 curvature (~0.45 s) fills the ranks around the 90th
        # percentile: two per pass, with only the m=4, D=6 jobs above them.
        slots=[
            Slot("curv-coord-m2-D4", 2, coord("curvature", 2, 4)),
            Slot("curv-coord-m2-D6", 2, coord("curvature", 2, 6)),
            Slot("curv-coord-m3-D4", 2, coord("curvature", 3, 4)),
            Slot("curv-coord-m3-D6", 2, coord("curvature", 3, 6)),
            Slot("metric-coord-m2-D6", 1, coord("metric", 2, 6)),
            Slot("metric-coord-m3-D4", 1, coord("metric", 3, 4)),
            Slot("metric-coord-m3-D6", 2, coord("metric", 3, 6)),
            Slot("curv-principal-origin-m2", 1, principal_bidisc((4, 6), False)),
            Slot("curv-principal-offbase-m2", 1,
                 principal_bidisc((4, 6), True),
                 known_defect=PRINCIPAL_DEFECT, first=documented_defect),
            Slot("curv-zero-m3-t2-D6", 2, zero_set("curvature", 3, 2, 6)),
            Slot("metric-zero-m3-t2-D6", 1, zero_set("metric", 3, 2, 6)),
            Slot("curv-zero-m3-t1-D4", 1, zero_set("curvature", 3, 1, 4)),
            Slot("curv-coord-m4-D4", 1, coord("curvature", 4, 4)),
            Slot("curv-coord-m4-D6", 1, coord("curvature", 4, 6)),
            Slot("curv-coord-m5-D4", 2, coord("curvature", 5, 4)),
            Slot("metric-coord-m4-D6", 1, coord("metric", 4, 6)),
            Slot("metric-coord-m5-D4", 1, coord("metric", 5, 4)),
            Slot("curv-zero-m4-t3-D6", 1, zero_set("curvature", 4, 3, 6,
                                                   powers=(1, 2))),
            Slot("curv-zero-m5-t4-D4", 1, zero_set("curvature", 5, 4, 4,
                                                   powers=(1, 2))),
        ]),
    "kernel-eval": dict(
        why=("kernel build and evaluation in rkhs, linalg and polynomials; "
             "no frames or curvature"),
        pass_seconds=8.0,
        trace_passes=1,
        # Slots are listed by cost.  A slot fixes the sizes that set a job's
        # cost (ideal degree, points per fractional-weight job), so each slot
        # is a cluster of similar times; the counts put the median inside
        # the two-point diagonal-sum cluster and the 90th percentile inside
        # the degree-8 product_difference cluster, away from cluster edges.
        slots=[
            Slot("kern-int-monomial-m2", 2, monomial_kernel(2, False, range(1, 7))),
            Slot("kern-int-monomial-m3", 2, monomial_kernel(3, False, range(1, 7))),
            Slot("kern-point-int", 2, rank_one_kernel((2, 3), False, range(1, 7))),
            Slot("kern-frac-monomial-m2-p1", 3, monomial_kernel(2, True, (1,))),
            Slot("kern-gram-pd-m2-N6", 2, gram_kernel(
                2, 6, ("product_difference",), range(1, 7), KERNEL_WEIGHTS_M2)),
            Slot("kern-gram-general-m2-N6", 2, gram_kernel(
                2, 6, GENERAL_M2_PAIRS, range(1, 7), KERNEL_WEIGHTS_M2)),
            Slot("kern-frac-monomial-m2-p2", 4, monomial_kernel(2, True, (2,))),
            Slot("kern-point-frac-m2", 3, rank_one_kernel((2,), True, (1,))),
            Slot("kern-frac-monomial-m2-p3", 2, monomial_kernel(2, True, (3,))),
            Slot("kern-gram-general-m3-N6", 1, gram_kernel(
                3, 6, GENERAL_M3, range(1, 4))),
            Slot("kern-gram-general-m2-N8", 2, gram_kernel(
                2, 8, GENERAL_M2_PAIRS[:2], range(1, 7), KERNEL_WEIGHTS_M2)),
            Slot("kern-gram-pd-m2-N8", 3, gram_kernel(
                2, 8, ("product_difference",), range(1, 7), KERNEL_WEIGHTS_M2)),
            Slot("kern-frac-monomial-m3", 1, monomial_kernel(3, True, (1,))),
            Slot("kern-gram-pd-m2-N10", 1, gram_kernel(
                2, 10, ("product_difference",), range(1, 7), KERNEL_WEIGHTS_M2)),
        ]),
    "task-mix": dict(
        why=("many small jobs over all seven tasks: fixed per-job cost, "
             "localization, Sturm isolation and the rigidity battery"),
        pass_seconds=0.35,
        trace_passes=24,
        slots=[
            Slot("cubic", 6, cubic()),
            Slot("dim-product-difference", 2, dimension_product_difference()),
            Slot("dim-principal", 2, dimension_principal()),
            Slot("dim-other", 2, dimension_other()),
            Slot("compare-lambda-mu", 3, compare_lambda_mu()),
            Slot("compare-battery", 3, compare_battery()),
            Slot("decompose", 3, small_frame("decompose", (2, 3), (4, 6))),
            Slot("metric", 3, small_frame("metric", (2, 3), (4, 6))),
            Slot("curvature-m2-D4", 3, small_curvature()),
            Slot("kernel-closed-form", 4, small_kernel()),
            Slot("invalid", 4, invalid()),
        ]),
}


def digest(job) -> str:
    """Identifies a job by what the CLI receives: config text and flags."""
    text = json.dumps([job.task, job.config, list(job.extra)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def timed_passes(workload, seconds):
    """Passes in a timed run: as many nominal pass times as fit in the run
    length, and enough passes for MIN_JOBS jobs."""
    spec = WORKLOADS[workload]
    per_pass = sum(slot.count for slot in spec["slots"])
    return max(round(seconds / spec["pass_seconds"]), -(-MIN_JOBS // per_pass))


def pool_size(workload, slot):
    """Variants of a slot: what a run of RUN_SECONDS takes from it."""
    passes = timed_passes(workload, RUN_SECONDS)
    return max(MIN_VARIANTS, passes * slot.count)


def pool(workload):
    """Every variant of every slot: the jobs that are pinned.  Variant k of
    a slot is drawn from a stream named after it, redrawn while its config
    equals an earlier variant's."""
    seen, out = set(), {}
    for slot in WORKLOADS[workload]["slots"]:
        for k in range(pool_size(workload, slot)):
            for draw in range(MAX_DRAWS):
                if k == 0 and slot.first:
                    fields = slot.first()
                else:
                    rng = random.Random(f"{workload}/{slot.name}/{k}/{draw}")
                    fields = slot.make(rng)
                job = Job(workload=workload, name=f"{slot.name}/v{k:02d}",
                          known_defect=slot.known_defect, **fields)
                if digest(job) not in seen:
                    break
            else:
                raise ValueError(f"{workload}:{slot.name}: no new config in "
                                 f"{MAX_DRAWS} draws for variant {k}")
            seen.add(digest(job))
            out[job.name] = job
    return out


def schedule(workload, seed, pass_index):
    """The job names of one pass.  Each slot walks through its own seeded
    permutation of its variants, so a run uses every variant about equally
    often and its size mix hardly depends on the seed."""
    names = []
    for slot in WORKLOADS[workload]["slots"]:
        order = list(range(pool_size(workload, slot)))
        random.Random(f"{workload}/{slot.name}/seed={seed}").shuffle(order)
        start = pass_index * slot.count
        names += [f"{slot.name}/v{order[(start + i) % len(order)]:02d}"
                  for i in range(slot.count)]
    random.Random(f"{workload}/seed={seed}/pass={pass_index}").shuffle(names)
    return names
