"""Span tracing of submodcurv from outside the package, and the per-layer
metrics computed from the spans.

The tracer wraps the public functions listed in ``SPANS`` at every name they
are bound under: the defining module, every ``from .x import f`` binding in
another submodcurv module, the package namespace and class attributes
(aliases such as ``__rmul__ = __mul__`` included).  A span records name,
start and end (process CPU clock, ns), parent span and job; spans stay in
memory and are written as JSON lines when the run ends.  ``COUNTERS`` are hot methods that are only
counted per job, because a span per call would cost more than the call.

Sizes (series terms, Gram candidates, diagonal multi-indices, report bytes)
are read from arguments and return values, so nothing inside ``src/`` has
to know about tracing.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from collections import Counter, defaultdict

EVALS = tuple(f"rkhs.{cls}.{meth}"
              for cls in ("DiagonalFilteredKernel", "RankOneCorrectedKernel",
                          "GramFormKernel")
              for meth in ("eval_exact", "eval_truncated"))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _frame_terms(args, kwargs, frame):
    return {"terms": sum(len(s.coeffs) for vec in frame.vectors
                         for s in vec.values())}


def _metric_terms(args, kwargs, metric):
    return {"terms": sum(len(s.coeffs) for row in metric.matrix.entries
                         for s in row)}


def _gram_sizes(args, kwargs, kernel):
    module = _arg(args, kwargs, 0, "module")
    ideal = _arg(args, kwargs, 1, "ideal")
    degree = _arg(args, kwargs, 2, "trunc_degree")
    m = module.dim
    candidates = sum(math.comb(degree - g.degree + m, m)
                     for g in ideal.generators if g.degree <= degree)
    return {"candidates": candidates, "basis": len(kernel.basis)}


def _diag_terms(args, kwargs, result):
    """C(N+m, m) multi-indices summed by a diagonal sum of degree N; both
    traced sums take (module or kernel, z, w, N)."""
    first = args[0]
    module = getattr(first, "module", first)
    N = _arg(args, kwargs, 3, "N")
    if N is None:
        N = first.default_trunc
    return {"terms": math.comb(N + module.dim, module.dim)}


def _localization_degrees(args, kwargs, result):
    return {"degrees": len(result.dims_by_degree)}


_INTEGER = re.compile(r"\d+")


def _report_sizes(args, kwargs, text):
    bits = max((int(tok).bit_length() for tok in _INTEGER.findall(text)),
               default=0)
    return {"bytes": len(text.encode("utf-8")), "fraction_bits": bits}


# span name (module.qualname within submodcurv) -> size extractor or None
SPANS = {
    "cli.parse_config": None,
    "cli.run_task": None,
    "cli.render_report": _report_sizes,
    "frames.decompose_coordinate_ideal": _frame_terms,
    "frames.frame_on_zero_set": _frame_terms,
    "frames.grammian": _metric_terms,
    "frames.reconstruction_residual": None,
    "curvature.curvature_matrix": None,
    "curvature.det_bundle_curvature": None,
    "curvature.principal_curvature_pair": None,
    "algebra.SeriesMatrix.inverse": None,
    "algebra.SeriesMatrix.det": None,
    "algebra.series_log": None,
    "rkhs.submodule_kernel": None,
    "rkhs.GramFormKernel.from_ideal": _gram_sizes,
    "rkhs.ambient_kernel_bounded": _diag_terms,
    **dict.fromkeys(EVALS),
    "rkhs.DiagonalFilteredKernel.eval_truncated": _diag_terms,
    "linalg.mat_rank": None,
    "linalg.mat_solve": None,
    "linalg.leading_principal_minors": None,
    "ideals.localization_dim": _localization_degrees,
    "invariants.cubic_positive_roots": None,
    "invariants.polydisc_rigidity_report": None,
}

COUNTERS = {
    "algebra.TruncSeries.__mul__": "algebra.series_mul_calls",
    "polynomials.Poly.shift_by_monomial": "polynomials.shift_calls",
}


PACKAGE = "submodcurv"


class Tracer:
    """Collects spans and per-job call counts while installed."""

    def __init__(self):
        self.spans = []        # [id, parent, job, name, start, end, attrs]
        self.stack = []
        self.counts = Counter()
        self.job = None
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, extract):
        spans, stack, clock = self.spans, self.stack, time.process_time_ns

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.job, name,
                   clock(), 0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if extract is not None:
                rec[6] = extract(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _counter(self, metric, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # -- installation --------------------------------------------------------

    def _resolve(self, dotted):
        module, _, qualname = dotted.partition(".")
        owner = sys.modules[f"{PACKAGE}.{module}"]
        if "." in qualname:
            cls, _, attr = qualname.partition(".")
            raw = vars(getattr(owner, cls))[attr]
            return getattr(raw, "__func__", raw)
        return getattr(owner, qualname)

    def install(self):
        """Replace every binding of the listed functions in the package."""
        wrappers, names = {}, {}
        for name, extract in SPANS.items():
            fn = self._resolve(name)
            wrappers[fn], names[fn] = self._span(name, fn, extract), name
        for name, metric in COUNTERS.items():
            fn = self._resolve(name)
            wrappers[fn], names[fn] = self._counter(metric, fn), name
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        owners = {id(mod): mod for mod in modules}
        for mod in modules:
            owners.update((id(obj), obj) for obj in vars(mod).values()
                          if isinstance(obj, type)
                          and obj.__module__.startswith(PACKAGE))
        replaced = set()
        for owner in owners.values():
            for key, value in list(vars(owner).items()):
                fn = getattr(value, "__func__", value)
                if not callable(fn) or fn not in wrappers:
                    continue
                wrapper = wrappers[fn]
                if isinstance(value, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._restore.append((owner, key, value))
                setattr(owner, key, wrapper)
                replaced.add(names[fn])
        missing = set(names.values()) - replaced
        if missing:
            self.uninstall()
            raise RuntimeError(f"no binding found for {sorted(missing)}")
        return self

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job_index, name):
        """Open the root span of one job; its counts land on that span."""
        self.job = job_index
        self.counts.clear()
        self._root = [len(self.spans), None, job_index, "job",
                      time.process_time_ns(), 0, {"job_name": name}]
        self.spans.append(self._root)
        self.stack.append(self._root[0])

    def end_job(self):
        self._root[5] = time.process_time_ns()
        self.stack.pop()
        self._root[6]["counts"] = dict(self.counts)
        self.job = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "job": job, "name": name,
                       "start_ns": start, "end_ns": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics: totals over every span of a traced run.  Every *_ms
# metric is self time: the span minus the spans it directly contains.


def _self_ms(*names):
    return ("self_ms", names)


def _attr_sum(key, *names):
    return ("attr_sum", key, names)


LAYER_METRICS = [
    ("frames.frame_ms", "ms", "lower", _self_ms(
        "frames.decompose_coordinate_ideal", "frames.frame_on_zero_set")),
    ("frames.frame_terms", "count", "lower", _attr_sum(
        "terms", "frames.decompose_coordinate_ideal",
        "frames.frame_on_zero_set")),
    ("frames.grammian_ms", "ms", "lower", _self_ms("frames.grammian")),
    ("frames.metric_terms", "count", "lower",
     _attr_sum("terms", "frames.grammian")),
    ("frames.residual_ms", "ms", "lower",
     _self_ms("frames.reconstruction_residual")),
    ("curvature.blocks_ms", "ms", "lower",
     _self_ms("curvature.curvature_matrix")),
    ("curvature.det_bundle_ms", "ms", "lower",
     _self_ms("curvature.det_bundle_curvature")),
    ("curvature.principal_pair_ms", "ms", "lower",
     _self_ms("curvature.principal_curvature_pair")),
    ("algebra.inverse_ms", "ms", "lower",
     _self_ms("algebra.SeriesMatrix.inverse")),
    ("algebra.det_ms", "ms", "lower", _self_ms("algebra.SeriesMatrix.det")),
    ("algebra.log_ms", "ms", "lower", _self_ms("algebra.series_log")),
    ("algebra.series_mul_calls", "count", "lower",
     ("counter", "algebra.series_mul_calls")),
    ("rkhs.gram_build_ms", "ms", "lower",
     _self_ms("rkhs.GramFormKernel.from_ideal")),
    ("rkhs.gram_candidates", "count", "lower",
     _attr_sum("candidates", "rkhs.GramFormKernel.from_ideal")),
    ("rkhs.gram_basis", "count", "lower",
     _attr_sum("basis", "rkhs.GramFormKernel.from_ideal")),
    ("rkhs.gram_accept_ratio", "ratio", "higher",
     ("ratio", "rkhs.gram_basis", "rkhs.gram_candidates")),
    ("rkhs.eval_ms", "ms", "lower", _self_ms(*EVALS)),
    ("rkhs.evals", "count", "lower", ("outer_calls", EVALS)),
    ("rkhs.diag_terms", "count", "lower", _attr_sum(
        "terms", "rkhs.DiagonalFilteredKernel.eval_truncated",
        "rkhs.ambient_kernel_bounded")),
    ("linalg.rank_ms", "ms", "lower", _self_ms("linalg.mat_rank")),
    ("linalg.rank_calls", "count", "lower", ("calls", ("linalg.mat_rank",))),
    ("linalg.solve_ms", "ms", "lower", _self_ms("linalg.mat_solve")),
    ("linalg.minors_ms", "ms", "lower",
     _self_ms("linalg.leading_principal_minors")),
    ("polynomials.shift_calls", "count", "lower",
     ("counter", "polynomials.shift_calls")),
    ("ideals.localization_ms", "ms", "lower",
     _self_ms("ideals.localization_dim")),
    ("ideals.localization_degrees", "count", "lower",
     _attr_sum("degrees", "ideals.localization_dim")),
    ("invariants.cubic_ms", "ms", "lower",
     _self_ms("invariants.cubic_positive_roots")),
    ("invariants.rigidity_ms", "ms", "lower",
     _self_ms("invariants.polydisc_rigidity_report")),
    ("cli.parse_ms", "ms", "lower", _self_ms("cli.parse_config")),
    ("cli.render_ms", "ms", "lower", _self_ms("cli.render_report")),
    ("cli.report_bytes", "bytes", "lower",
     _attr_sum("bytes", "cli.render_report")),
    ("cli.max_fraction_bits", "bits", "lower",
     ("attr_max", "fraction_bits", ("cli.render_report",))),
]


def layer_metrics(spans):
    """Per-layer totals from span records (dicts as written by Tracer)."""
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    names_of = {s["id"]: s["name"] for s in spans}
    counters = Counter()
    for s in by_name["job"]:
        counters.update(s["attrs"]["counts"])

    out = {}
    for metric, unit, _, rule in LAYER_METRICS:
        kind = rule[0]
        if kind == "self_ms":
            ns = sum(s["end_ns"] - s["start_ns"] - child_ns[s["id"]]
                     for n in rule[1] for s in by_name[n])
            value = ns / 1e6
        elif kind == "attr_sum":
            value = sum(s.get("attrs", {}).get(rule[1], 0)
                        for n in rule[2] for s in by_name[n])
        elif kind == "attr_max":
            value = max((s.get("attrs", {}).get(rule[1], 0)
                         for n in rule[2] for s in by_name[n]), default=0)
        elif kind == "calls":
            value = sum(len(by_name[n]) for n in rule[1])
        elif kind == "outer_calls":
            value = sum(1 for n in rule[1] for s in by_name[n]
                        if names_of.get(s["parent"]) not in rule[1])
        elif kind == "counter":
            value = counters[rule[1]]
        else:  # ratio of two metrics computed above
            den = out[rule[2]]["value"]
            value = out[rule[1]]["value"] / den if den else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
