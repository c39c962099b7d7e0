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

import functools
import sys
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

from .algebra import ZERO, Record
from .curvature import (CONVENTION, JET_DEGREE, curvature_tensor,
                        principal_curvature_pair)
from .errors import (DomainError, InputError, SubmodcurvError,
                     UnsupportedIdealError, WorkLimitError)
from .frames import (COORDINATE_KIND, decompose_coordinate_ideal,
                     frame_on_zero_set, grammian)
from .ideals import (CATALOGUE, GENERAL, MONOMIAL, IdealSpec,
                     localization_dim)
from .invariants import (cubic_positive_roots, lambda_mu_invariants,
                         polydisc_rigidity_report)
from .polynomials import parse_poly
from .rkhs import (WeightedPolydiscModule, in_open_polydisc,
                   submodule_kernel)

class JobConfig(Record):
    # generators are the polynomial source strings
    _fields = ("task", "output", "dimension", "weights", "generators",
               "catalogue", "points", "base_point", "trunc_degree",
               "ideal_degree", "alpha", "compare_weights")
    _defaults = {**dict.fromkeys(_fields[1:]), "output": "text",
                 "points": (), "trunc_degree": 6, "ideal_degree": 6}


# Each parser reads one key's text into (value, echo): the JobConfig value
# and the report's echo of it, which for rationals is str(value), written
# once per text behind the memo.  Each checks its own value.

@functools.lru_cache(maxsize=256)
def _parse_rational(text: str, fieldname: str) -> tuple:
    text = text.strip()
    try:
        value = Fraction(text)
        # str() raises on more digits than sys.get_int_max_str_digits()
        return value, str(value)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"not a rational number: {text!r} ({e})",
                         field=fieldname)


def _parse_vector(text: str, fieldname: str) -> tuple:
    parts = text.replace(",", " ").split()
    if not parts:
        raise InputError("empty vector", field=fieldname)
    # (values, echo): the first and second entries of each part's read
    return tuple(zip(*[_parse_rational(p, fieldname) for p in parts]))


def _parse_weights(text: str, fieldname: str) -> tuple:
    read = _parse_vector(text, fieldname)
    # a Fraction's denominator is positive: its sign is its numerator's
    if not all(x.numerator > 0 for x in read[0]):
        raise InputError(f"{fieldname.partition('.')[2]} must be positive",
                         field=fieldname)
    return read


def _parse_points(text: str, fieldname: str) -> tuple:
    read = [_parse_vector(chunk, fieldname)
            for chunk in text.split(";") if chunk.strip()]
    return tuple([v for v, _ in read]), tuple([e for _, e in read])


def _parse_int(text: str, fieldname: str) -> tuple:
    try:
        n = int(text.strip())
    except ValueError:
        raise InputError(f"not an integer: {text.strip()!r}", field=fieldname)
    return n, n


def _parse_dimension(text: str, fieldname: str) -> tuple:
    read = _parse_int(text, fieldname)
    if read[0] < 1:
        raise InputError("dimension must be >= 1", field=fieldname)
    return read


def _parse_name(text: str, fieldname: str) -> tuple:
    name = text.strip()
    return name, name


def _parse_generators(text: str, fieldname: str) -> tuple:
    gens = tuple(filter(None, map(str.strip, text.split(","))))
    if not gens:
        raise InputError("empty generator list", field=fieldname)
    return gens, gens


def _parse_catalogue(text: str, fieldname: str) -> tuple:
    name = text.strip()
    if name not in CATALOGUE:
        raise InputError(f"unknown catalogue ideal {name!r}; known: "
                         f"{', '.join(sorted(CATALOGUE))}", field=fieldname)
    return name, name


# section -> key -> parser(text, "section.key").  Keys are read in this
# order, and no key is in two sections; every key but task.name is the
# JobConfig field of the same name.
SCHEMA = {
    "module": {"dimension": _parse_dimension, "weights": _parse_weights},
    "ideal": {"generators": _parse_generators, "catalogue": _parse_catalogue},
    "task": {
        "name": _parse_name,
        "points": _parse_points,
        "base_point": _parse_vector,
        "trunc_degree": _parse_int,
        "ideal_degree": _parse_int,
        "alpha": _parse_rational,
        "compare_weights": _parse_weights,
        "output": _parse_name,
    },
}
FLAG_LABELS = {"output": "--output", "trunc_degree": "--trunc-degree",
               "ideal_degree": "--ideal-degree", "points": "--point"}
TASK_LABELS = {key: f"task.{key}" for key in SCHEMA["task"]}


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
            if not in_open_polydisc(pt):
                raise InputError(
                    f"point ({', '.join(str(x) for x in pt)}) lies outside "
                    "the open polydisc", field=labels[key])


def _read_config(text: str):
    """The sections of a config text, read as configparser reads it with
    '#' inline comments, strict duplicates and no interpolation: a dict
    section -> {key: value} in file order.  [DEFAULT] is an ordinary
    section here, which parse_config refuses as unknown.

    A text of plain lines alone is read by _read_plain_config.  Any other
    goes to a RawConfigParser built for the call, whose default section
    has a name with a '\n' in it, which no header, being one line, can
    spell.  Only '#' opens an inline comment: ';' separates points in a
    value, and opens a comment only at the start of a line.  A
    configparser error becomes an InputError with its message and line,
    raised from it; configparser is imported here, on the first text that
    is not plain.
    """
    sections = _read_plain_config(text)
    if sections is not None:
        return sections
    import configparser
    reader = configparser.RawConfigParser(inline_comment_prefixes=("#",),
                                          default_section="\n")
    try:
        reader.read_string(text)
    except configparser.ParsingError as e:
        line = e.errors[0][0] if getattr(e, "errors", None) else None
        raise InputError(f"config syntax: {e.message.splitlines()[0]}",
                         line=line) from e
    except configparser.Error as e:
        raise InputError(f"config syntax: {e}") from e
    return {name: dict(reader.items(name)) for name in reader.sections()}


def _read_plain_config(text: str):
    """_read_config's sections for a text with no '#' whose lines are all
    empty or plain, with no section or key given twice; None for any other
    text.  A plain line is '[name]', or 'key = value' with ':' or '=' as
    the delimiter, its key starting with no space, ';' or '['.  Such a
    text has no comment, continuation or error, so configparser would read
    each value as the stripped text after the first delimiter, and each
    key as the lowered text before it, right-stripped.  One pass of str
    methods over the lines: a regex per line, or one over the text, costs
    more."""
    if "#" in text:
        return None
    sections = {}
    cursect = None
    for line in text.split("\n"):
        if not line:
            continue
        if line[0] == "[":
            name = line[1:-1]
            if line[-1] != "]" or not name or name in sections:
                return None
            cursect = sections[name] = {}
            continue
        key, delimiter, value = line.partition("=")
        if ":" in key:  # the first delimiter is a ':'
            key, colon, head = key.partition(":")
            value = head + delimiter + value
            delimiter = colon
        if (not delimiter or not key or cursect is None
                or key[0] in ";[" or key[0].isspace()):
            return None
        key = key.rstrip().lower()
        if key in cursect:
            return None
        cursect[key] = value.strip()
    return sections


# [cfg, echo] of the config parse_config returned last, echo the report's
# input section as the key reads wrote it: one entry, overwritten in place by
# every parse.  _input_echo reads it for that JobConfig alone.
_last_read = [None, {}]
# the JobConfig defaults that the input section echoes when no key sets
# them: those that are set, output aside
_ECHOED_DEFAULTS = {key: value for key, value in JobConfig._defaults.items()
                    if key != "output" and value not in (None, ())}


def _parse_section(sections, section, fields, echoes):
    """Parse the keys given in one section of the config into fields and
    their echoes, each by its SCHEMA parser, in SCHEMA order."""
    sec = sections.get(section)
    if not sec:
        return
    parsers = SCHEMA[section]
    if not sec.keys() <= parsers.keys():
        raise next(InputError(f"unknown key {key!r} in [{section}]", field=key)
                   for key in sec if key not in parsers)
    if "catalogue" in sec and "generators" in sec:
        raise InputError("give either generators or a catalogue name, "
                         "not both", field="ideal")
    for key in parsers:
        if key in sec:
            fields[key], echoes[key] = _read_key(section, key, sec[key])


@functools.lru_cache(maxsize=1024)
def _read_key(section: str, key: str, text: str) -> tuple:
    """(value, echo) of one key's text, by its SCHEMA parser: a function
    of the text alone, so each (section, key, text) is parsed once and
    shared by every job that gives it.  A value that fails its check
    raises every time, as lru_cache keeps no exception."""
    return SCHEMA[section][key](text, f"{section}.{key}")


def parse_config(text: str, args=None) -> JobConfig:
    """Parse sectioned key=value config source into a JobConfig; args, the
    parsed command line, overrides the task and the fields its flags set.

    All validation failures raise InputError carrying the field (and line
    when the underlying reader reports one).  The sections are parsed in
    SCHEMA order, [module] checked before [ideal] is read.  The output,
    degrees and points are checked after the overrides, each under its key
    or flag.
    """
    sections = _read_config(text)
    if not sections.keys() <= SCHEMA.keys():
        raise next(InputError(f"unknown section [{section}]", field=section)
                   for section in sections if section not in SCHEMA)

    fields, echoes = {}, {}
    _parse_section(sections, "module", fields, echoes)
    if ("dimension" in fields) != ("weights" in fields):
        raise InputError("[module] needs both dimension and weights",
                         field="module")
    if len(fields.get("weights", ())) != fields.get("dimension", 0):
        raise InputError(
            f"got {len(fields['weights'])} weights for dimension "
            f"{fields['dimension']}", field="module.weights")
    _parse_section(sections, "ideal", fields, echoes)
    _parse_section(sections, "task", fields, echoes)
    # the task's vectors match the dimension, whatever the task
    if "dimension" in fields:
        if len(fields.get("compare_weights",
                          fields["weights"])) != fields["dimension"]:
            raise InputError("compare_weights must match the dimension",
                             field="task.compare_weights")
        if len(fields.get("base_point",
                          fields["weights"])) != fields["dimension"]:
            raise InputError("base point arity does not match dimension",
                             field="task.base_point")

    task = fields.pop("name", None)
    if task is None:
        raise InputError("missing task name ([task] name = ...)",
                         field="task.name")
    if task not in TASKS:
        raise InputError(f"unknown task {task!r}; choose from "
                         f"{', '.join(TASKS)}", field="task.name")
    labels = TASK_LABELS
    if args is not None:
        task = args.task
        for key, value in (("output", args.output),
                           ("trunc_degree", args.trunc_degree),
                           ("ideal_degree", args.ideal_degree)):
            if value is not None:
                fields[key] = echoes[key] = value
                labels = {**labels, key: FLAG_LABELS[key]}
        if args.point is not None:
            if "points" not in TASKS[task].reads:
                point_tasks = [name for name, t in TASKS.items()
                               if "points" in t.reads]
                raise InputError(
                    f"task {task!r} reads no points; --point applies "
                    f"only to the {' and '.join(point_tasks)} tasks",
                    field="--point")
            point, echo = _parse_vector(args.point, "--point")
            fields["points"], echoes["points"] = (point,), (echo,)
            labels = {**labels, "points": FLAG_LABELS["points"]}
    _check_fields(fields, labels)
    cfg = JobConfig(task=task, **fields)
    # every field set but output, as _input_echo writes it: the defaults,
    # then the fields read, each as its key read wrote it
    echo = {**_ECHOED_DEFAULTS, **echoes, "task": task}
    del echo["name"]
    echo.pop("output", None)
    if fields.get("points") == ():
        del echo["points"]
    _last_read[:] = cfg, echo
    return cfg


# ---------------------------------------------------------------------------
# Report structure and rendering


class Report:
    def __init__(self, task: str, input_echo: dict):
        self.task = task
        self.input_echo = input_echo
        self.results = []  # (name, value) pairs
        self.diagnostics = {}

    def add(self, name, value):
        self.results.append((name, value))

    def add_matrix(self, name, rows):
        """One result name_ij per entry, i and j counted from 1.  The names
        are formatted once per name and row lengths (_matrix_names)."""
        self.results += zip(_matrix_names(name, tuple(map(len, rows))),
                            chain.from_iterable(rows))

    def add_blocks(self, name, blocks):
        """The rows of add_matrix(f"{name}_{i}{j}", block) for every block
        of a square matrix of t-by-t blocks, block by block; the names are
        formatted once per name and shape (_block_names)."""
        entries = chain.from_iterable(chain.from_iterable(
            chain.from_iterable(blocks)))
        self.results += zip(_block_names(name, len(blocks), len(blocks[0][0])),
                            entries)


@functools.lru_cache(maxsize=256)
def _matrix_names(name: str, shape: tuple) -> tuple:
    """name_ij for i from 1 to len(shape) and j from 1 to shape[i - 1]."""
    return tuple(f"{name}_{i}{j}" for i, n in enumerate(shape, 1)
                 for j in range(1, n + 1))


@functools.lru_cache(maxsize=64)
def _block_names(name: str, m: int, t: int) -> tuple:
    """name_ij_ab for the blocks (i, j) of an m-by-m matrix of t-by-t
    blocks, block by block, each block's names as _matrix_names'."""
    return tuple(chain.from_iterable(
        _matrix_names(f"{name}_{i}{j}", (t,) * t)
        for i in range(1, m + 1) for j in range(1, m + 1)))


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


# the report values written as [a, b] or {k: v}: every other value is its
# str(), and the package's one zero, most rows of a curvature report, is
# "0" without Fraction.__str__
_CONTAINERS = frozenset((list, tuple, dict))


def _render_value(value):
    """The text of a list, tuple or dict report value: [a, b] or {k: v}
    with the keys sorted, each entry written as a row's value is.  Entries
    that are all str, as the echo's texts and most diagnostics are, are
    joined as they are."""
    if type(value) is dict:
        return "{%s}" % ", ".join([
            "%s: %s" % (k, _render_value(v) if type(v) in _CONTAINERS else v)
            for k, v in sorted(value.items())])
    if value and type(value[0]) is str:
        try:
            return "[%s]" % ", ".join(value)
        except TypeError:  # an entry after the first is no str
            pass
    return "[%s]" % ", ".join([
        _render_value(v) if type(v) in _CONTAINERS else str(v) for v in value])


def _rows(pairs) -> list:
    """The report line "  name = value" of each (name, value) pair."""
    return ["  %s = %s" % (name, "0" if value is ZERO
                           else _render_value(value)
                           if type(value) in _CONTAINERS else value)
            for name, value in pairs]


def render_report(report: Report, output: str) -> str:
    if output == "json":
        import json
        payload = {
            "task": report.task,
            "input": _encode(report.input_echo),
            "results": [{"name": name, "value": _encode(value),
                         "units": None} for name, value in report.results],
            "diagnostics": _encode(report.diagnostics),
            "convention": CONVENTION,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "\n".join([
        "task: " + report.task, "input:",
        *_rows(sorted(report.input_echo.items())), "results:",
        *_rows(report.results), "diagnostics:",
        *_rows(sorted(report.diagnostics.items())),
        "convention: " + CONVENTION, ""])


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
    if not cfg.catalogue and not cfg.generators:
        raise InputError(f"task {cfg.task!r} requires an [ideal] section",
                         field="ideal")
    return _ideal(cfg.catalogue, cfg.generators, cfg.dimension)


@functools.lru_cache(maxsize=256)
def _ideal(catalogue, generators, nvars) -> IdealSpec:
    """The ideal of a catalogue name or of generator texts in nvars
    variables, built once per (catalogue, generators, nvars) and shared by
    every job that names it: no caller mutates an IdealSpec or its Polys
    (tests/test_cli.py checks the memoized ones across jobs)."""
    if catalogue:
        return IdealSpec.catalogued(catalogue, nvars)
    gens = []
    for src in generators:
        try:
            gens.append(parse_poly(src, nvars))
        except InputError as e:
            raise InputError(f"bad generator {src!r}: {e}",
                             field="ideal.generators")
    try:
        return IdealSpec(nvars, tuple(gens))
    except DomainError as e:
        raise InputError(str(e), field="ideal")


def _echo_value(value):
    # exact types: isinstance on Fraction goes through the ABC machinery
    if type(value) is tuple:
        return [_echo_value(v) for v in value]
    return str(value) if type(value) is Fraction else value


def _input_echo(cfg: JobConfig) -> dict:
    """Every field of cfg but output that is set: for the config
    parse_config returned last, the echo its key reads wrote; for any
    other, such as one built in code, each value as _echo_value writes
    it."""
    read, echo = _last_read
    if read is cfg:
        return dict(echo)
    return {key: _echo_value(value)
            for key, value in zip(cfg._fields, cfg._values())
            if key != "output" and value not in (None, ())}


def _build_frame(cfg: JobConfig, module, ideal):
    """Frame for the decompose/metric/curvature tasks.

    The full coordinate ideal gets the neighborhood frame; proper
    coordinate-power ideals get the zero-variety frame at the base point
    (origin slice unless the config provides one).  The curvature task reads
    the frame spec alone (curvature_tensor), in which no truncation degree
    enters, so its frame stops at JET_DEGREE; a lower trunc_degree still
    reaches the frame builder's own check first.
    """
    base = cfg.base_point  # its arity was checked by parse_config
    if base is None:
        base = (Fraction(0),) * module.dim
    trunc = cfg.trunc_degree
    if cfg.task == "curvature":
        trunc = min(trunc, JET_DEGREE)
    data = ideal.coordinate_powers
    if len(data) == module.dim and all(p == 1 for _, p in data):
        if any(x != 0 for x in base):
            raise DomainError(
                "the full coordinate ideal is decomposed around the origin")
        return decompose_coordinate_ideal(module, trunc)
    return frame_on_zero_set(module, ideal, base, trunc)


def _point_task_inputs(cfg: JobConfig):
    """(module, ideal) of the kernel and dimension tasks, once the points
    are checked: given, each with one coordinate per variable."""
    module = _build_module(cfg)
    ideal = _build_ideal(cfg)
    _require(cfg, "points")
    if any(len(p) != module.dim for p in cfg.points):
        raise InputError("point arity does not match dimension",
                         field="task.points")
    return module, ideal


def _frame_task_inputs(cfg: JobConfig):
    """(module, frame) of the decompose, metric and curvature tasks."""
    module = _build_module(cfg)
    ideal = _build_ideal(cfg)
    return module, _build_frame(cfg, module, ideal)


def _run_kernel(cfg: JobConfig, report: Report):
    module, ideal = _point_task_inputs(cfg)
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


def _run_decompose(cfg: JobConfig, report: Report):
    _, frame = _frame_task_inputs(cfg)
    report.add("frame_count", frame.count)
    report.add("frame_kind", frame.kind)
    for k, (v, p) in enumerate(zip(frame.gen_vars, frame.gen_powers)):
        # the monic monomial z_{v+1}^p, as str(Poly) writes it
        report.add(f"generator_{k+1}",
                   f"z{v+1}" if p == 1 else f"z{v+1}^{p}")
        report.add(f"lead_coefficient_{k+1}", frame.lead_coeffs[k])
    # by share_numerators, shares sum to 1 on every divided kernel term
    report.add("reconstruction_exact", True)
    report.diagnostics["free_variables"] = \
        [f"w{i+1}" for i in frame.free_slots]
    report.diagnostics["splitting_rule"] = frame.splitting_note
    report.diagnostics["base_point"] = [str(x) for x in frame.base_point]


def _run_metric(cfg: JobConfig, report: Report):
    _, frame = _frame_task_inputs(cfg)
    metric = grammian(frame)
    report.add_matrix("metric_at_base", metric.value_at_base())
    # grammian's builders are Hermitian by construction, and it returns
    # only metrics with positive leading principal minors, which it keeps
    report.add("hermitian", True)
    report.add("positive_definite", True)
    for k, d in enumerate(metric.minors, 1):
        report.add(f"principal_minor_{k}", d)
    t = metric.size
    report.diagnostics["metric_series"] = dict(zip(
        _matrix_names("H", (t,) * t),
        [metric.entry_text(i, j) for i in range(t) for j in range(t)]))
    if metric.scale:
        report.diagnostics["diagonal_scales"] = [metric.scale] * t


def _run_curvature(cfg: JobConfig, report: Report):
    module, frame = _frame_task_inputs(cfg)
    if cfg.trunc_degree < 4:
        raise DomainError("curvature task needs trunc_degree >= 4")
    tensor = curvature_tensor(frame)
    report.add_matrix("det_bundle_curvature", tensor.trace_matrix())
    report.add_blocks("curvature_block", tensor.blocks)
    t = tensor.size
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


def _run_dimension(cfg: JobConfig, report: Report):
    module, ideal = _point_task_inputs(cfg)
    # point_k_on_variety only for point ideals, the catalogue and powers of
    # single variables, as pinned; ROADMAP item 13's re-pin drops this rule
    on_variety_rows = ideal.family != GENERAL and (
        ideal.family != MONOMIAL or all(
            sum(map(bool, g.monomial_exponent())) == 1
            for g in ideal.generators))
    max_deg = max(cfg.ideal_degree, ideal.max_degree + 1)
    for k, p in enumerate(cfg.points, 1):
        loc = localization_dim(ideal, p, max_deg)
        report.add(f"localization_dim_{k}", loc.dim)
        report.add(f"stabilized_at_{k}", loc.stabilized_at)
        report.diagnostics[f"dims_by_degree_{k}"] = \
            [[n, d] for n, d in loc.dims_by_degree]
        if on_variety_rows:
            report.diagnostics[f"point_{k}_on_variety"] = \
                ideal.vanishes_at(p)
        if loc.conditional:
            report.diagnostics[f"conditional_{k}"] = (
                "general-family result; stabilization is heuristic")


def _run_compare(cfg: JobConfig, report: Report):
    module = _build_module(cfg)
    _require(cfg, "compare_weights")
    ideal = _build_ideal(cfg)
    data = ideal.coordinate_powers
    gen_vars, powers = zip(*data)
    t = len(data)
    if t == module.dim:
        if module.dim == 2 and powers == (1, 1):
            # each side's pair once, read by the decision and the rows
            a = lambda_mu_invariants(*module.weights)
            b = lambda_mu_invariants(*cfg.compare_weights)
            report.add("equivalent", a.as_pair() == b.as_pair())
            report.add("kappa1_left", a.kappa1)
            report.add("kappa2_left", a.kappa2)
            report.add("kappa1_right", b.kappa1)
            report.add("kappa2_right", b.kappa2)
            report.diagnostics["invariants_used"] = [
                "det-bundle curvature diagonal of the coordinate ideal"]
            return
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


def _run_cubic(cfg: JobConfig, report: Report):
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


class Task(Record):
    """A row of TASKS: reads, the config keys the task reads, as in
    SCHEMA, and run, where run(cfg, report) adds the task's results."""

    _fields = ("reads", "run")


# the keys every task reads, then those of every task on a module and an
# ideal; a key a task does not read is still checked and echoed
_JOB_KEYS = frozenset({"name", "output"})
_IDEAL_KEYS = _JOB_KEYS | {"dimension", "weights", "generators", "catalogue"}
_POINT_KEYS = _IDEAL_KEYS | {"points", "ideal_degree"}
_FRAME_KEYS = _IDEAL_KEYS | {"base_point", "trunc_degree"}

# the tasks in the order of the subcommands and of the unknown-task message
TASKS = {
    "kernel": Task(_POINT_KEYS, _run_kernel),
    "decompose": Task(_FRAME_KEYS, _run_decompose),
    "metric": Task(_FRAME_KEYS, _run_metric),
    "curvature": Task(_FRAME_KEYS, _run_curvature),
    "dimension": Task(_POINT_KEYS, _run_dimension),
    "compare": Task(_IDEAL_KEYS | {"compare_weights"}, _run_compare),
    "cubic": Task(_JOB_KEYS | {"alpha"}, _run_cubic),
}


def run_task(cfg: JobConfig) -> Report:
    """cfg's report: its input echo, then its task's results."""
    report = Report(task=cfg.task, input_echo=_input_echo(cfg))
    TASKS[cfg.task].run(cfg, report)
    return report


# ---------------------------------------------------------------------------
# Entry point


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built on the first call and reused by every
    later main() call in the process; argparse reads the terminal width
    when it formats a message, not here.  argparse is imported here, on
    the first argv that _canonical_args declines."""
    import argparse
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


def _canonical_args(argv):
    """The attributes of the Namespace _build_parser().parse_args(argv)
    returns, in a SimpleNamespace read without argparse, for the argv of
    nearly every job: a task, then --config PATH, PATH not starting with
    '-'.  None for any other argv, flags included, which argparse then
    reads, so its values, usage and error bytes stay its own."""
    if (len(argv) != 3 or argv[0] not in TASKS or argv[1] != "--config"
            or argv[2][:1] == "-"):
        return None
    return SimpleNamespace(task=argv[0], config=argv[2], output=None,
                           trunc_degree=None, ideal_degree=None, point=None)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _canonical_args(argv) or _build_parser().parse_args(argv)
    try:
        try:
            with open(args.config, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read config: {e}")
        # the newlines of text mode: '\r\n' and a lone '\r' end a line
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        cfg = parse_config(text, args)
        report = run_task(cfg)
        try:
            out = render_report(report, cfg.output)
        except ValueError as e:
            # str() and json write no int past sys.get_int_max_str_digits()
            if not str(e).startswith("Exceeds the limit"):
                raise
            raise WorkLimitError(
                "a result has more digits than the limit of "
                f"{sys.get_int_max_str_digits()} that Python writes "
                "(sys.get_int_max_str_digits())") from e
        sys.stdout.write(out)
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
