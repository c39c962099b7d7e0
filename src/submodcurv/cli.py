"""Config-driven command line interface.

Tasks: kernel, decompose, metric, curvature, dimension, compare, cubic.
Each reads a sectioned key=value config file; command-line flags override
individual fields.  Reports render as deterministic text or JSON: the same
config always produces byte-identical output.

Exit codes: 0 success, 2 config error, 3 violated mathematical precondition,
4 unsupported ideal family for the requested operation.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .curvature import (CONVENTION, JET_DEGREE, curvature_tensor,
                        principal_curvature_pair)
from .errors import (DomainError, InputError, SubmodcurvError,
                     UnsupportedIdealError)
from .frames import (COORDINATE_KIND, coordinate_power_data,
                     decompose_coordinate_ideal, frame_on_zero_set, grammian,
                     reconstruction_residual)
from .ideals import (CATALOGUE, IdealSpec, localization_dim, zero_set)
from .invariants import (cubic_positive_roots, lambda_mu_equivalent,
                         lambda_mu_invariants, polydisc_rigidity_report)
from .polynomials import parse_poly
from .rkhs import WeightedPolydiscModule, submodule_kernel

TASKS = ("kernel", "decompose", "metric", "curvature", "dimension",
         "compare", "cubic")
POINT_TASKS = ("kernel", "dimension")  # the tasks that read task.points


@dataclass(frozen=True)
class JobConfig:
    task: str
    output: str = "text"
    dimension: Optional[int] = None
    weights: Optional[tuple] = None
    generators: Optional[tuple] = None  # polynomial source strings
    family: Optional[str] = None
    catalogue: Optional[str] = None
    points: tuple = ()
    base_point: Optional[tuple] = None
    trunc_degree: int = 6
    ideal_degree: int = 6
    alpha: Optional[Fraction] = None
    compare_weights: Optional[tuple] = None


def _parse_rational(text: str, fieldname: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational number: {text.strip()!r} ({e})",
                         field=fieldname)


def _parse_vector(text: str, fieldname: str) -> tuple:
    parts = text.replace(",", " ").split()
    if not parts:
        raise InputError("empty vector", field=fieldname)
    return tuple(_parse_rational(p, fieldname) for p in parts)


def _parse_points(text: str, fieldname: str) -> tuple:
    return tuple(_parse_vector(chunk, fieldname)
                 for chunk in text.split(";") if chunk.strip())


def _parse_int(text: str, fieldname: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise InputError(f"not an integer: {text.strip()!r}", field=fieldname)


def parse_config(text: str) -> JobConfig:
    """Parse sectioned key=value config source into a JobConfig.

    All validation failures raise InputError carrying the field (and line
    when the underlying reader reports one).
    """
    # ';' separates points, so only '#' opens an inline comment; a line
    # that starts with ';' is still a comment
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.ParsingError as e:
        line = e.errors[0][0] if getattr(e, "errors", None) else None
        raise InputError(f"config syntax: {e.message.splitlines()[0]}",
                         line=line)
    except configparser.Error as e:
        raise InputError(f"config syntax: {e}")

    known = {"module", "ideal", "task"}
    for section in cp.sections():
        if section not in known:
            raise InputError(f"unknown section [{section}]", field=section)

    kw = {}

    if cp.has_section("module"):
        sec = cp["module"]
        for key in sec:
            if key not in ("dimension", "weights"):
                raise InputError(f"unknown key {key!r} in [module]", field=key)
        if "dimension" in sec:
            kw["dimension"] = _parse_int(sec["dimension"], "module.dimension")
            if kw["dimension"] < 1:
                raise InputError("dimension must be >= 1",
                                 field="module.dimension")
        if "weights" in sec:
            kw["weights"] = _parse_vector(sec["weights"], "module.weights")
            if any(w <= 0 for w in kw["weights"]):
                raise InputError("weights must be positive",
                                 field="module.weights")
        if ("dimension" in kw) != ("weights" in kw):
            raise InputError("[module] needs both dimension and weights",
                             field="module")
        if "dimension" in kw and len(kw["weights"]) != kw["dimension"]:
            raise InputError(
                f"got {len(kw['weights'])} weights for dimension "
                f"{kw['dimension']}", field="module.weights")

    if cp.has_section("ideal"):
        sec = cp["ideal"]
        for key in sec:
            if key not in ("generators", "family", "catalogue"):
                raise InputError(f"unknown key {key!r} in [ideal]", field=key)
        if "generators" in sec and "catalogue" in sec:
            raise InputError("give either generators or a catalogue name, "
                             "not both", field="ideal")
        if "generators" in sec:
            gens = tuple(g.strip() for g in sec["generators"].split(",")
                         if g.strip())
            if not gens:
                raise InputError("empty generator list",
                                 field="ideal.generators")
            kw["generators"] = gens
        if "catalogue" in sec:
            name = sec["catalogue"].strip()
            if name not in CATALOGUE:
                raise InputError(
                    f"unknown catalogue ideal {name!r}; known: "
                    f"{', '.join(sorted(CATALOGUE))}", field="ideal.catalogue")
            kw["catalogue"] = name
        if "family" in sec:
            kw["family"] = sec["family"].strip()

    task = None
    if cp.has_section("task"):
        sec = cp["task"]
        allowed = ("name", "points", "base_point", "trunc_degree",
                   "ideal_degree", "alpha", "compare_weights", "output")
        for key in sec:
            if key not in allowed:
                raise InputError(f"unknown key {key!r} in [task]", field=key)
        if "name" in sec:
            task = sec["name"].strip()
        if "points" in sec:
            kw["points"] = _parse_points(sec["points"], "task.points")
        if "base_point" in sec:
            kw["base_point"] = _parse_vector(sec["base_point"],
                                             "task.base_point")
        if "trunc_degree" in sec:
            kw["trunc_degree"] = _parse_int(sec["trunc_degree"],
                                            "task.trunc_degree")
        if "ideal_degree" in sec:
            kw["ideal_degree"] = _parse_int(sec["ideal_degree"],
                                            "task.ideal_degree")
        if "alpha" in sec:
            kw["alpha"] = _parse_rational(sec["alpha"], "task.alpha")
        if "compare_weights" in sec:
            kw["compare_weights"] = _parse_vector(sec["compare_weights"],
                                                  "task.compare_weights")
        if "output" in sec:
            kw["output"] = sec["output"].strip()

    if task is None:
        raise InputError("missing task name ([task] name = ...)",
                         field="task.name")
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}; choose from "
                         f"{', '.join(TASKS)}", field="task.name")
    if kw.get("output", "text") not in ("text", "json"):
        raise InputError("output must be text or json", field="task.output")
    if kw.get("trunc_degree", 6) < 1:
        raise InputError("trunc_degree must be >= 1",
                         field="task.trunc_degree")
    if kw.get("ideal_degree", 6) < 1:
        raise InputError("ideal_degree must be >= 1",
                         field="task.ideal_degree")
    for label, pts in (("task.points", kw.get("points", ())),
                       ("task.base_point",
                        (kw["base_point"],) if kw.get("base_point") else ())):
        for pt in pts:
            if any(abs(x) >= 1 for x in pt):
                raise InputError(
                    f"point ({', '.join(str(x) for x in pt)}) lies outside "
                    "the open polydisc", field=label)

    return JobConfig(task=task, **kw)


# ---------------------------------------------------------------------------
# Report structure and rendering


@dataclass
class Report:
    task: str
    input_echo: dict
    results: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    convention: str = CONVENTION

    def add(self, name, value, units=None):
        self.results.append({"name": name, "value": value, "units": units})


def _encode(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items())}
    return str(value)


def _render_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_render_value(v)}"
                               for k, v in sorted(value.items())) + "}"
    return str(value)


def render_report(report: Report, output: str) -> str:
    if output == "json":
        payload = {
            "task": report.task,
            "input": _encode(report.input_echo),
            "results": [{"name": r["name"], "value": _encode(r["value"]),
                         "units": r["units"]} for r in report.results],
            "diagnostics": _encode(report.diagnostics),
            "convention": report.convention,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [f"task: {report.task}"]
    lines.append("input:")
    for k in sorted(report.input_echo):
        lines.append(f"  {k} = {_render_value(report.input_echo[k])}")
    lines.append("results:")
    for r in report.results:
        unit = f" [{r['units']}]" if r["units"] else ""
        lines.append(f"  {r['name']} = {_render_value(r['value'])}{unit}")
    lines.append("diagnostics:")
    for k in sorted(report.diagnostics):
        lines.append(f"  {k} = {_render_value(report.diagnostics[k])}")
    lines.append(f"convention: {report.convention}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Task execution


def _require(cfg: JobConfig, *fields):
    for f in fields:
        if getattr(cfg, f) in (None, ()):
            raise InputError(f"task {cfg.task!r} requires {f}", field=f)


def _build_module(cfg: JobConfig) -> WeightedPolydiscModule:
    _require(cfg, "dimension", "weights")
    return WeightedPolydiscModule(cfg.dimension, cfg.weights)


def _build_ideal(cfg: JobConfig) -> IdealSpec:
    _require(cfg, "dimension")
    if cfg.catalogue:
        return IdealSpec.catalogued(cfg.catalogue, cfg.dimension)
    if not cfg.generators:
        raise InputError(f"task {cfg.task!r} requires an [ideal] section",
                         field="ideal")
    gens = []
    for src in cfg.generators:
        try:
            gens.append(parse_poly(src, cfg.dimension))
        except InputError as e:
            raise InputError(f"bad generator {src!r}: {e}",
                             field="ideal.generators")
    try:
        return IdealSpec.from_generators(cfg.dimension, gens, cfg.family)
    except DomainError as e:
        raise InputError(str(e), field="ideal")


def _input_echo(cfg: JobConfig) -> dict:
    echo = {"task": cfg.task}
    if cfg.dimension is not None:
        echo["dimension"] = cfg.dimension
    if cfg.weights is not None:
        echo["weights"] = [str(w) for w in cfg.weights]
    if cfg.generators is not None:
        echo["generators"] = list(cfg.generators)
    if cfg.catalogue is not None:
        echo["catalogue"] = cfg.catalogue
    if cfg.family is not None:
        echo["family"] = cfg.family
    if cfg.points:
        echo["points"] = [[str(x) for x in p] for p in cfg.points]
    if cfg.base_point is not None:
        echo["base_point"] = [str(x) for x in cfg.base_point]
    if cfg.alpha is not None:
        echo["alpha"] = str(cfg.alpha)
    if cfg.compare_weights is not None:
        echo["compare_weights"] = [str(w) for w in cfg.compare_weights]
    echo["trunc_degree"] = cfg.trunc_degree
    echo["ideal_degree"] = cfg.ideal_degree
    return echo


def _build_frame(cfg: JobConfig, module, ideal):
    """Frame for the decompose/metric/curvature tasks.

    The full coordinate ideal gets the neighborhood frame; proper
    coordinate-power ideals get the zero-variety frame at the base point
    (origin slice unless the config provides one).  The curvature task reads
    the frame spec alone (curvature_tensor), in which no truncation degree
    enters, so its frame stops at JET_DEGREE; a lower trunc_degree still
    reaches the frame builder's own check first.
    """
    base = cfg.base_point
    if base is None:
        base = (Fraction(0),) * module.dim
    elif len(base) != module.dim:
        raise InputError("base point arity does not match dimension",
                         field="task.base_point")
    trunc = cfg.trunc_degree
    if cfg.task == "curvature":
        trunc = min(trunc, JET_DEGREE)
    data = coordinate_power_data(ideal)
    if len(data) == module.dim and all(p == 1 for _, p in data):
        if any(x != 0 for x in base):
            raise DomainError(
                "the full coordinate ideal is decomposed around the origin")
        return decompose_coordinate_ideal(module, trunc)
    return frame_on_zero_set(module, ideal, base, trunc)


def run_task(cfg: JobConfig) -> Report:
    report = Report(task=cfg.task, input_echo=_input_echo(cfg))

    if cfg.task == "cubic":
        if cfg.alpha is None:
            raise InputError("task 'cubic' requires alpha", field="task.alpha")
        cr = cubic_positive_roots(cfg.alpha)
        report.add("positive_root_count", cr.positive_roots)
        for k, (lo, hi) in enumerate(cr.isolating_intervals, 1):
            report.add(f"isolating_interval_{k}", [lo, hi])
        report.diagnostics["cubic_coefficients_ascending"] = \
            [str(c) for c in cr.coefficients]
        report.diagnostics["method"] = \
            "exact Sturm chain over the rationals with bisection isolation"
        return report

    module = _build_module(cfg)

    if cfg.task == "compare":
        _require(cfg, "compare_weights")
        if len(cfg.compare_weights) != module.dim:
            raise InputError("compare_weights must match the dimension",
                             field="task.compare_weights")
        if any(w <= 0 for w in cfg.compare_weights):
            raise InputError("compare_weights must be positive",
                             field="task.compare_weights")
        ideal = _build_ideal(cfg)
        data = coordinate_power_data(ideal)
        gen_vars, powers = zip(*data)
        t = len(data)
        if t == module.dim:
            if module.dim == 2 and powers == (1, 1):
                a = lambda_mu_invariants(*module.weights)
                b = lambda_mu_invariants(*cfg.compare_weights)
                report.add("equivalent", lambda_mu_equivalent(
                    *module.weights, *cfg.compare_weights))
                report.add("kappa1_left", a.kappa1)
                report.add("kappa2_left", a.kappa2)
                report.add("kappa1_right", b.kappa1)
                report.add("kappa2_right", b.kappa2)
                report.diagnostics["invariants_used"] = [
                    "det-bundle curvature diagonal of the coordinate ideal"]
                return report
            raise UnsupportedIdealError(
                "comparison needs a transverse direction (fewer generators "
                "than variables) or the bidisc coordinate ideal")
        rr = polydisc_rigidity_report(module.weights, powers,
                                      cfg.compare_weights, gen_vars)
        report.add("equivalent", rr.equivalent)
        for name, v in rr.battery_left:
            report.add(f"left_{name}", v)
        for name, v in rr.battery_right:
            report.add(f"right_{name}", v)
        report.diagnostics["invariants_used"] = list(rr.invariants_used)
        return report

    if cfg.task == "kernel":
        ideal = _build_ideal(cfg)
        _require(cfg, "points")
        for p in cfg.points:
            if len(p) != module.dim:
                raise InputError("point arity does not match dimension",
                                 field="task.points")
        kern = submodule_kernel(module, ideal, cfg.ideal_degree)
        report.diagnostics["kernel_variant"] = kern.variant
        exact_ok = module.has_integer_weights() or kern.variant == "gram_form"

        def add_value(name, z, w):
            if exact_ok:
                report.add(name, kern.eval_exact(z, w))
            else:
                bounded = kern.eval_truncated(z, w)
                report.add(name, bounded.value)
                report.diagnostics[f"{name}_remainder_bound"] = \
                    float(bounded.bound)

        for k, p in enumerate(cfg.points, 1):
            add_value(f"kernel_diag_{k}", p, p)
        if len(cfg.points) >= 2:
            add_value("kernel_offdiag_12", cfg.points[0], cfg.points[1])
        if kern.variant == "gram_form":
            report.diagnostics["gram_basis_size"] = len(kern.basis)
            report.diagnostics["gram_truncation_degree"] = kern.trunc_degree
            report.diagnostics["truncation_note"] = (
                "gram-form values are the degree-truncated kernel; raise "
                "ideal_degree to check stabilization")
        return report

    if cfg.task == "dimension":
        ideal = _build_ideal(cfg)
        _require(cfg, "points")
        try:
            variety = zero_set(ideal)
        except (UnsupportedIdealError, DomainError):
            variety = None
        max_deg = max(cfg.ideal_degree, ideal.max_degree + 1)
        for k, p in enumerate(cfg.points, 1):
            if len(p) != module.dim:
                raise InputError("point arity does not match dimension",
                                 field="task.points")
            loc = localization_dim(ideal, p, max_deg)
            report.add(f"localization_dim_{k}", loc.dim)
            report.add(f"stabilized_at_{k}", loc.stabilized_at)
            report.diagnostics[f"dims_by_degree_{k}"] = \
                [[n, d] for n, d in loc.dims_by_degree]
            if variety is not None:
                on_v = variety.contains(p)
                if on_v is not None:
                    report.diagnostics[f"point_{k}_on_variety"] = on_v
            if loc.conditional:
                report.diagnostics[f"conditional_{k}"] = (
                    "general-family result; stabilization is heuristic")
        return report

    # decompose / metric / curvature all need a frame
    ideal = _build_ideal(cfg)
    frame = _build_frame(cfg, module, ideal)

    if cfg.task == "decompose":
        report.add("frame_count", frame.count)
        report.add("frame_kind", frame.kind)
        for k, gen in enumerate(frame.generator_polys()):
            report.add(f"generator_{k+1}", str(gen))
            report.add(f"lead_coefficient_{k+1}", frame.lead_coeffs[k])
        residual = reconstruction_residual(frame)
        report.add("reconstruction_exact", not residual)
        report.diagnostics["free_variables"] = \
            [f"w{i+1}" for i in frame.free_slots]
        report.diagnostics["splitting_rule"] = frame.splitting_note
        report.diagnostics["base_point"] = [str(x) for x in frame.base_point]
        return report

    if cfg.task == "metric":
        metric = grammian(frame)
        base = metric.value_at_base()
        t = metric.size
        for i in range(t):
            for j in range(t):
                report.add(f"metric_at_base_{i+1}{j+1}", base[i][j])
        # grammian returns only Hermitian metrics with positive leading
        # principal minors at the base point, which it keeps
        report.add("hermitian", True)
        report.add("positive_definite", True)
        for k, d in enumerate(metric.minors, 1):
            report.add(f"principal_minor_{k}", d)
        report.diagnostics["metric_series"] = {
            f"H_{i+1}{j+1}": str(metric.matrix[i, j])
            for i in range(t) for j in range(t)}
        if metric.scales:
            report.diagnostics["diagonal_scales"] = \
                [str(s) for s in metric.scales]
        return report

    if cfg.task == "curvature":
        if cfg.trunc_degree < 4:
            raise DomainError("curvature task needs trunc_degree >= 4")
        m = module.dim
        tensor = curvature_tensor(frame)
        det_curv = tensor.trace_matrix()  # the det-bundle curvature
        for i in range(m):
            for j in range(m):
                report.add(f"det_bundle_curvature_{i+1}{j+1}",
                           det_curv[i][j])
        t = tensor.size
        for i in range(m):
            for j in range(m):
                block = tensor.block(i, j)
                for a in range(t):
                    for b in range(t):
                        report.add(f"curvature_block_{i+1}{j+1}_{a+1}{b+1}",
                                   block[a][b])
        if frame.kind == COORDINATE_KIND and module.dim == 2 and t == 2:
            inv = lambda_mu_invariants(*module.weights)
            report.add("closed_form_kappa1", inv.kappa1)
            report.add("closed_form_kappa2", inv.kappa2)
        if frame.kind != COORDINATE_KIND and t == 1 and module.dim == 2:
            pair = principal_curvature_pair(module, frame.gen_powers[0],
                                            frame.gen_vars[0])
            report.add("transverse_norm_hessian", pair.raw)
            report.add("transverse_log_hessian", pair.log_based)
            report.diagnostics["transverse_convention_note"] = pair.note
        report.diagnostics["free_variables"] = \
            [f"w{i+1}" for i in frame.free_slots]
        return report

    raise InputError(f"unhandled task {cfg.task!r}", field="task.name")


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and reused by every
    later main() call in the process; argparse reads the terminal width
    when it formats a message, not here."""
    parser = argparse.ArgumentParser(
        prog="submodcurv",
        description="exact curvature invariants of polydisc submodules")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True,
                       help="path to the sectioned key=value config file")
        p.add_argument("--output", choices=("text", "json"),
                       help="override the report format")
        p.add_argument("--trunc-degree", type=int,
                       help="override the series truncation degree")
        p.add_argument("--ideal-degree", type=int,
                       help="override the ideal truncation degree")
        p.add_argument("--point",
                       help="override task points with one point, e.g. "
                            "'1/3 0' (kernel and dimension tasks only)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read config: {e}")
        cfg = parse_config(text)
        overrides = {"task": args.task}
        if args.output:
            overrides["output"] = args.output
        if args.trunc_degree is not None:
            if args.trunc_degree < 1:
                raise InputError("trunc_degree must be >= 1",
                                 field="--trunc-degree")
            overrides["trunc_degree"] = args.trunc_degree
        if args.ideal_degree is not None:
            if args.ideal_degree < 1:
                raise InputError("ideal_degree must be >= 1",
                                 field="--ideal-degree")
            overrides["ideal_degree"] = args.ideal_degree
        if args.point is not None:
            if args.task not in POINT_TASKS:
                raise InputError(
                    f"task {args.task!r} reads no points; --point applies "
                    f"only to the {' and '.join(POINT_TASKS)} tasks",
                    field="--point")
            pt = _parse_vector(args.point, "--point")
            if any(abs(x) >= 1 for x in pt):
                raise InputError("point lies outside the open polydisc",
                                 field="--point")
            overrides["points"] = (pt,)
        cfg = JobConfig(**{**cfg.__dict__, **overrides})
        report = run_task(cfg)
        sys.stdout.write(render_report(report, cfg.output))
        return 0
    except InputError as e:
        sys.stderr.write(f"config error: {e}\n")
        return 2
    except UnsupportedIdealError as e:
        sys.stderr.write(f"unsupported ideal family: {e}\n")
        return 4
    except SubmodcurvError as e:
        sys.stderr.write(f"precondition violated: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
