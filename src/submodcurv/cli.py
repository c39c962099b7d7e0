"""Config-driven command line interface.

Tasks: kernel, decompose, metric, curvature, dimension, compare, cubic.
Each reads a sectioned key=value config file whose sections and keys are the
SCHEMA table; command-line flags override single fields, and a degree or a
point gets the same checks from a flag as from its key (_check_fields), once
the flags are applied, so a valid flag replaces a bad value in the file.
Reports render as deterministic text or JSON, echoing every set JobConfig
field but output: the same config always produces byte-identical output.

Exit codes: 0 success, 2 config error, 3 violated mathematical precondition,
4 unsupported ideal family for the requested operation.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import re
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


# the spelling nearly every value uses: ASCII [+-]digits[/digits]
_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(text: str, fieldname: str) -> Fraction:
    """A rational as Fraction(text) reads it.  The plain spelling with a
    nonzero denominator is built from its integers; every other one
    (decimals, exponents, underscores, non-ASCII digits, a zero
    denominator) goes to Fraction(text), so the values and the errors
    are Fraction's own."""
    text = text.strip()
    plain = _PLAIN_RATIONAL.fullmatch(text)
    if plain:
        num, den = plain.groups()
        if den is None:
            return Fraction(int(num))
        if int(den):
            return Fraction(int(num), int(den))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational number: {text!r} ({e})",
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


def _parse_name(text: str, fieldname: str) -> str:
    return text.strip()


def _parse_generators(text: str, fieldname: str) -> tuple:
    return tuple(g.strip() for g in text.split(",") if g.strip())


def _parse_catalogue(text: str, fieldname: str) -> str:
    name = text.strip()
    if name not in CATALOGUE:
        raise InputError(f"unknown catalogue ideal {name!r}; known: "
                         f"{', '.join(sorted(CATALOGUE))}", field=fieldname)
    return name


def _checked(parse, ok, message):
    """parse, then reject a value for which ok(value) is false."""
    def parser(text, fieldname):
        value = parse(text, fieldname)
        if not ok(value):
            raise InputError(message, field=fieldname)
        return value
    return parser


# section -> key -> parser(text, "section.key"), each parser checking its
# own value.  Keys are read in this order; every key but task.name is the
# JobConfig field of the same name.
SCHEMA = {
    "module": {
        "dimension": _checked(_parse_int, lambda n: n >= 1,
                              "dimension must be >= 1"),
        "weights": _checked(_parse_vector, lambda ws: all(w > 0 for w in ws),
                            "weights must be positive"),
    },
    "ideal": {
        "generators": _checked(_parse_generators, bool,
                               "empty generator list"),
        "catalogue": _parse_catalogue,
        "family": _parse_name,
    },
    "task": {
        "name": _parse_name,
        "points": _parse_points,
        "base_point": _parse_vector,
        "trunc_degree": _parse_int,
        "ideal_degree": _parse_int,
        "alpha": _parse_rational,
        "compare_weights": _parse_vector,
        "output": _parse_name,
    },
}
FLAG_LABELS = {"output": "--output", "trunc_degree": "--trunc-degree",
               "ideal_degree": "--ideal-degree", "points": "--point"}


def _check_fields(fields: dict, labels: dict):
    """The checks a field gets whether it comes from the config file or
    from a flag; labels maps each field to its name in messages."""
    if fields.get("output", "text") not in ("text", "json"):
        raise InputError("output must be text or json", field=labels["output"])
    for key in ("trunc_degree", "ideal_degree"):
        if fields.get(key, 1) < 1:
            raise InputError(f"{key} must be >= 1", field=labels[key])
    for key, pts in (("points", fields.get("points", ())),
                     ("base_point", (fields["base_point"],)
                      if "base_point" in fields else ())):
        for pt in pts:
            if any(abs(x) >= 1 for x in pt):
                raise InputError(
                    f"point ({', '.join(str(x) for x in pt)}) lies outside "
                    "the open polydisc", field=labels[key])


def _read_config(text: str):
    """The sections of a config text, read as configparser reads it with
    '#' inline comments, strict duplicates and no interpolation: a dict
    section -> {key: value} in file order, and the [DEFAULT] keys.

    Lines split on '\n' alone, as configparser's StringIO does.  A line
    whose stripped text starts with '#' or ';' is a comment, and a '#'
    at the start or after whitespace opens an inline comment (';' is an
    ordinary character in a value, where it separates points).  Keys are
    lower-cased and end at the first '=' or ':'.  A line indented deeper
    than the key's line continues its value, blank lines inside a value
    are kept, and each value is joined by '\n' and rstripped.  Errors are
    configparser's own, with its source name and line numbers.
    """
    sections, defaults = {}, {}
    cursect = sectname = optname = error = None
    indent_level = 0
    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        value = line.strip()
        if not value:
            if cursect is not None and optname:
                cursect[optname] += "\n"
            continue
        if value[0] in "#;":
            continue
        at = line.find("#")  # not at 0, where the line is a comment
        while at != -1 and not line[at - 1].isspace():
            at = line.find("#", at + 1)
        if at != -1:
            value = line[:at].strip()
        indent = len(line) - len(line.lstrip())
        if cursect is not None and optname and indent > indent_level:
            cursect[optname] += "\n" + value
            continue
        indent_level = indent
        close = value.rfind("]")
        if value[0] == "[" and close > 1:
            sectname = value[1:close]
            if sectname == "DEFAULT":
                cursect = defaults
            elif sectname in sections:
                raise configparser.DuplicateSectionError(
                    sectname, "<string>", lineno)
            else:
                cursect = sections[sectname] = {}
            optname = None
            continue
        eq, colon = value.find("="), value.find(":")
        cut = eq if colon == -1 or -1 < eq < colon else colon
        if cursect is None or cut <= 0:
            # a line before any section, or one with no delimiter or no
            # key before it; the errors quote the line with its '\n', as
            # configparser reads it
            raw = line + "\n" if lineno < len(lines) else line
            if cursect is None:
                raise configparser.MissingSectionHeaderError(
                    "<string>", lineno, raw)
            if error is None:
                error = configparser.ParsingError("<string>")
            error.append(lineno, repr(raw))
            if cut == -1:
                continue
        optname = value[:cut].rstrip().lower()
        if optname in cursect:
            raise configparser.DuplicateOptionError(
                sectname, optname, "<string>", lineno)
        cursect[optname] = value[cut + 1:].strip()
    if error is not None:
        raise error
    for sect in (defaults, *sections.values()):
        for key, value in sect.items():
            sect[key] = value.rstrip()
    return sections, defaults


def parse_config(text: str, args=None) -> JobConfig:
    """Parse sectioned key=value config source into a JobConfig; args, the
    parsed command line, overrides the task and the fields its flags set.

    All validation failures raise InputError carrying the field (and line
    when the underlying reader reports one).  The output, degrees and
    points are checked after the overrides, each under its key or flag.
    """
    try:
        sections, defaults = _read_config(text)
    except configparser.ParsingError as e:
        line = e.errors[0][0] if getattr(e, "errors", None) else None
        raise InputError(f"config syntax: {e.message.splitlines()[0]}",
                         line=line)
    except configparser.Error as e:
        raise InputError(f"config syntax: {e}")

    for section in sections:
        if section not in SCHEMA:
            raise InputError(f"unknown section [{section}]", field=section)

    fields = {}
    for section, parsers in SCHEMA.items():
        # a section's own keys first, then [DEFAULT]'s, as configparser
        # lists them; [DEFAULT] reaches only the sections present
        sec = sections.get(section, {})
        if section in sections:
            for key, value in defaults.items():
                sec.setdefault(key, value)
        for key in sec:
            if key not in parsers:
                raise InputError(f"unknown key {key!r} in [{section}]",
                                 field=key)
        for key, at in (("generators", "ideal"), ("family", "ideal.family")):
            if "catalogue" in sec and key in sec:
                raise InputError(f"give either {key} or a catalogue name, "
                                 "not both", field=at)
        fields.update((key, parse(sec[key], f"{section}.{key}"))
                      for key, parse in parsers.items() if key in sec)
        if ("dimension" in fields) != ("weights" in fields):
            raise InputError("[module] needs both dimension and weights",
                             field="module")
        if len(fields.get("weights", ())) != fields.get("dimension", 0):
            raise InputError(
                f"got {len(fields['weights'])} weights for dimension "
                f"{fields['dimension']}", field="module.weights")

    task = fields.pop("name", None)
    if task is None:
        raise InputError("missing task name ([task] name = ...)",
                         field="task.name")
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}; choose from "
                         f"{', '.join(TASKS)}", field="task.name")
    labels = {key: f"task.{key}" for key in SCHEMA["task"]}
    if args is not None:
        task = args.task
        flags = {"output": args.output, "trunc_degree": args.trunc_degree,
                 "ideal_degree": args.ideal_degree}
        if args.point is not None:
            if task not in POINT_TASKS:
                raise InputError(
                    f"task {task!r} reads no points; --point applies "
                    f"only to the {' and '.join(POINT_TASKS)} tasks",
                    field="--point")
            flags["points"] = (_parse_vector(args.point, "--point"),)
        for key, value in flags.items():
            if value is not None:
                fields[key] = value
                labels[key] = FLAG_LABELS[key]
    _check_fields(fields, labels)
    return JobConfig(task=task, **fields)


# ---------------------------------------------------------------------------
# Report structure and rendering


@dataclass
class Report:
    task: str
    input_echo: dict
    results: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    convention: str = CONVENTION

    def add(self, name, value):
        self.results.append({"name": name, "value": value})


def _encode(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items())}
    return str(value)


def _render_value(value):
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
                         "units": None} for r in report.results],
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
        lines.append(f"  {r['name']} = {_render_value(r['value'])}")
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


def _echo_value(value):
    if isinstance(value, tuple):
        return [_echo_value(v) for v in value]
    return str(value) if isinstance(value, Fraction) else value


def _input_echo(cfg: JobConfig) -> dict:
    return {key: _echo_value(value) for key, value in vars(cfg).items()
            if key != "output" and value not in (None, ())}


def _require_points(cfg: JobConfig, module):
    _require(cfg, "points")
    if any(len(p) != module.dim for p in cfg.points):
        raise InputError("point arity does not match dimension",
                         field="task.points")


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
        _require_points(cfg, module)
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
        _require_points(cfg, module)
        try:
            variety = zero_set(ideal)
        except (UnsupportedIdealError, DomainError):
            variety = None
        max_deg = max(cfg.ideal_degree, ideal.max_degree + 1)
        for k, p in enumerate(cfg.points, 1):
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
        # grammian's builders are Hermitian by construction, and it returns
        # only metrics with positive leading principal minors, which it keeps
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
        cfg = parse_config(text, args)
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
