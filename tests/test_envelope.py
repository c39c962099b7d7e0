"""The job envelope against the routes it replaced (tests/oracles.py): the
plain config reader, the parse, the echo of rational inputs written with
their parse, the report text, and the weight checks of the module constructor and
the rigidity battery.  Each fast route must give the same values, the same
errors and the same bytes."""

from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submodcurv import cli
from submodcurv.algebra import ZERO
from submodcurv.cli import Report, parse_config, render_report, run_task
from submodcurv.errors import DomainError, InputError, UnsupportedIdealError
from submodcurv.invariants import polydisc_rigidity_report
from submodcurv.rkhs import WeightedPolydiscModule

from oracles import (input_echo_by_fraction_str, module_weights_by_rat,
                     parse_config_by_schema_walk,
                     polydisc_rigidity_report_by_modules,
                     render_text_by_recursion, sections_by_configparser)

GOLDEN_CONFIGS = sorted((Path(__file__).parent / "golden").glob("*/*.ini"))


def _outcome(call, *args):
    """call(*args), or ("raised", the type and the text of its error)."""
    try:
        return call(*args)
    except (InputError, DomainError, UnsupportedIdealError, ValueError) as e:
        return "raised", type(e), str(e)


def _as_lists(value):
    """An echo with every tuple a list, as the JSON report writes it."""
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    return value


# -- the plain reader ---------------------------------------------------------

_LINE_PART = st.sampled_from(
    ["[task]", "[module]", "[a]b]", "[]", "[x", "name", "Name", "alpha",
     " key", "\tkey", ";c", "#c", "k#", "=", ":", " = ", ":=", "=:", "1/2",
     " 3 ", "a=b", "a:b", "\x0c", "\x1c", "\x85", " ", "\r", "  ", ""])


@settings(max_examples=600, deadline=None)
@given(st.lists(st.lists(_LINE_PART, max_size=4).map("".join),
                max_size=8).map("\n".join))
def test_plain_reader_is_the_regex_reader(text):
    """One pass of str methods reads every text it does not decline as
    configparser reads it."""
    sections = cli._read_plain_config(text)
    if sections is not None:
        assert sections == sections_by_configparser(text)


def test_plain_reader_reads_every_golden_and_pooled_config(perfbench_jobs):
    texts = [job.config for workload in perfbench_jobs.WORKLOADS
             for job in perfbench_jobs.pool(workload).values()]
    texts += ["".join(line for line in config.read_text(
        encoding="utf-8").splitlines(keepends=True)
        if not line.startswith("#")) for config in GOLDEN_CONFIGS]
    for text in texts:
        sections = cli._read_plain_config(text)
        assert sections is not None
        assert sections == sections_by_configparser(text)


# -- the echo of rationals, written with their parse --------------------------

_SPELLINGS = ["2/4", "+1", "-0", "1/1", "007", " 3 ", "0/5", "-6/4", "3/1",
              "+2/3", "1_0", "1.5", "2e1", "-1/3", "0", "٣", "10/20"]
_canonical = st.fractions(max_denominator=60).map(str)
_rational_text = (st.sampled_from(_SPELLINGS) | _canonical
                  | st.from_regex(r"[ ]?[+-]?0{0,2}[1-9][0-9]?(/0{0,1}[1-9]"
                                  r"[0-9]?)?[ ]?", fullmatch=True))


def _examples(texts):
    """@example(text) for each of texts."""
    def apply(test):
        for text in texts:
            test = example(text)(test)
        return test
    return apply


@settings(max_examples=500, deadline=None)
@given(_rational_text)
@_examples(_SPELLINGS + ["115/41", "-7", "12"])
def test_rational_echo_is_the_str_echo(text):
    """A rational's echo is the str() of its value, written once per text
    by the memoized parse: the text itself when it is that spelling."""
    read = _outcome(cli._parse_rational, text, "task.alpha")
    if read[0] != "raised":
        value, echo = read
        assert echo == str(value) == str(F(text.strip()))


@pytest.mark.parametrize("text", _SPELLINGS + ["115/41", "-7", "12"])
def test_the_echo_is_the_text_itself_when_canonical(text):
    """The report's input section writes alpha as the text itself when it
    is the spelling str() writes of its value, and as that spelling
    otherwise."""
    value = _outcome(F, text.strip())
    if isinstance(value, F):
        cfg = parse_config(f"[task]\nname = cubic\nalpha = {text}\n")
        report = render_report(Report("cubic", cli._input_echo(cfg)), "text")
        assert f"  alpha = {value}" in report.splitlines()


_positive_text = st.sampled_from(["2/4", "+1", "1/1", "007", "3", "1/2",
                                  "6/4", "3/1", "+2/3", "1.5", "5/2"])
_point_text = st.sampled_from(["0", "-0", "1/2", "2/4", "+1/3", "-1/4",
                               "0/7", "3/9", "-2/6", "1/7"])


@st.composite
def _rational_config(draw):
    """A job config whose rational values take drawn spellings."""
    m = draw(st.integers(1, 3))
    weights = draw(st.lists(_positive_text, min_size=m, max_size=m))
    sep = draw(st.sampled_from([" ", ", ", "  ", ","]))
    task = draw(st.sampled_from(["kernel", "dimension", "cubic",
                                 "compare", "decompose"]))
    lines = ["[module]", f"dimension = {m}", f"weights = {sep.join(weights)}",
             "[ideal]", "generators = z1", "[task]", f"name = {task}"]
    if draw(st.booleans()):
        points = draw(st.lists(st.lists(_point_text, min_size=m,
                                        max_size=m), max_size=2))
        lines.append("points = " + "; ".join(map(" ".join, points)))
    if draw(st.booleans()):
        base = draw(st.lists(_point_text, min_size=m, max_size=m))
        lines.append("base_point = " + " ".join(base))
    if draw(st.booleans()):
        lines.append("alpha = " + draw(_rational_text))
    if draw(st.booleans()):
        other = draw(st.lists(_positive_text, min_size=m, max_size=m))
        lines.append("compare_weights = " + " ".join(other))
    return "\n".join(lines) + "\n"


def _echo_outcome(text, args=None):
    try:
        cfg = parse_config(text, args)
    except InputError as e:
        return str(e)
    return _as_lists(cli._input_echo(cfg)), \
        _as_lists(input_echo_by_fraction_str(cfg))


@settings(max_examples=300, deadline=None)
@given(_rational_config(),
       st.sampled_from([None, "1/2 0", "2/4 -0", "0 0", "+1/3 1/7"]))
def test_echo_from_text_is_the_str_echo(text, point):
    """The echo parse_config writes with its key reads, canonical
    spellings or not and with a --point override, is the echo of str() of
    every value that the report wrote before."""
    args = None
    if point is not None:
        cfg = _outcome(parse_config, text)
        if not isinstance(cfg, cli.JobConfig):
            return
        point = " ".join(point.split()[:1] * cfg.dimension)
        args = SimpleNamespace(task="kernel", output=None, trunc_degree=None,
                               ideal_degree=None, point=point)
    outcome = _echo_outcome(text, args)
    if isinstance(outcome, tuple):
        assert outcome[0] == outcome[1]


def test_echo_of_every_golden_and_pooled_config(perfbench_jobs):
    texts = [config.read_text(encoding="utf-8") for config in GOLDEN_CONFIGS]
    texts += [job.config for workload in perfbench_jobs.WORKLOADS
              for job in perfbench_jobs.pool(workload).values()]
    checked = 0
    for text in texts:
        outcome = _echo_outcome(text)
        if isinstance(outcome, tuple):
            assert outcome[0] == outcome[1], text
            checked += 1
    assert checked > 1000


def test_echo_of_a_config_built_in_code():
    """A JobConfig parse_config did not return is echoed by str()."""
    cfg = cli.JobConfig(task="kernel", dimension=2, weights=(F(2, 4), F(3)),
                        generators=("z1",), points=((F(1, 3), F(0)),))
    parse_config("[task]\nname = cubic\nalpha = 2\n")
    assert _as_lists(cli._input_echo(cfg)) == \
        _as_lists(input_echo_by_fraction_str(cfg))


def test_echo_writes_no_fraction_str(monkeypatch):
    """A plain config: its echo was written by its key reads, so no
    Fraction.__str__ runs while _input_echo writes it."""
    text = ("[module]\ndimension = 3\nweights = 4 11/2 1/2\n\n[ideal]\n"
            "generators = z1^2, z2^2\n\n[task]\nname = kernel\n"
            "points = 1/3 -1/4 0; 1/5 0 2/7\nalpha = 7/3\n")
    assert cli._read_plain_config(text) is not None
    cfg = parse_config(text)

    def refuse(self):
        raise AssertionError("Fraction.__str__ in the echo")
    monkeypatch.setattr(F, "__str__", refuse)
    echo = cli._input_echo(cfg)
    monkeypatch.undo()
    assert _as_lists(echo) == _as_lists(input_echo_by_fraction_str(cfg))


# -- the parse ----------------------------------------------------------------


_flags = st.builds(
    SimpleNamespace, task=st.sampled_from(["kernel", "cubic", "metric"]),
    output=st.sampled_from([None, "text", "json"]),
    trunc_degree=st.sampled_from([None, 4, 0]),
    ideal_degree=st.sampled_from([None, 5, -1]),
    point=st.sampled_from([None, "1/2 0", "2 0", "1/3", "x"]))


@settings(max_examples=300, deadline=None)
@given(_rational_config(), st.none() | _flags)
def test_parse_is_the_schema_walk(text, args):
    """Parsing only the keys given, each by a parser that checks its own
    value, gives the JobConfig or the error of the walk over every SCHEMA
    entry with its _checked closures."""
    assert _outcome(parse_config, text, args) == \
        _outcome(parse_config_by_schema_walk, text, args)


def test_key_reads_are_shared_and_bounded():
    """Each (section, key, text) is parsed once and its value shared by
    every config that gives it; a bad value raises every time, under its
    own key."""
    cli._read_key.cache_clear()
    text = ("[module]\ndimension = 2\nweights = 1 3/2\n[task]\nname = cubic\n"
            "alpha = 2/4\n")
    first, second = parse_config(text), parse_config(text)
    assert first == second and first.weights is second.weights
    info = cli._read_key.cache_info()
    assert (info.misses, info.hits) == (4, 4)
    assert info.maxsize is not None
    for _ in range(2):
        with pytest.raises(InputError, match="task.alpha"):
            parse_config("[task]\nname = cubic\nalpha = x\n")


# -- the report text ----------------------------------------------------------

_scalar = st.one_of(
    st.fractions(max_denominator=9), st.integers(-5, 5), st.booleans(),
    st.none(), st.sampled_from(["w1", "", "a, b", ZERO, 0.25]))
_value = st.recursive(_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.sampled_from(["H_11", "H_12", "b"]), inner,
                    max_size=2)), max_leaves=6)
_names = st.sampled_from(["a", "b_1", "c", "kernel_diag_1", "x"])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_names, _value, max_size=4),
       st.lists(st.tuples(_names, _value), max_size=5),
       st.dictionaries(_names, _value, max_size=4))
def test_report_text_is_the_recursive_text(echo, results, diagnostics):
    """The rows written without a call per scalar are the rows of the
    recursive renderer, for any nesting of lists, tuples and dicts."""
    report = Report("metric", echo)
    report.results = results
    report.diagnostics = diagnostics
    assert render_report(report, "text") == render_text_by_recursion(report)


def test_golden_reports_are_the_recursive_text():
    for config in GOLDEN_CONFIGS:
        report = _outcome(lambda: run_task(parse_config(
            config.read_text(encoding="utf-8"))))
        if isinstance(report, Report):
            assert render_report(report, "text") == \
                render_text_by_recursion(report), config


# -- the weight checks --------------------------------------------------------

_weight = st.one_of(
    st.fractions(min_value=-2, max_value=4, max_denominator=6),
    st.integers(-1, 3), st.sampled_from(["3/2", "x", 1.5, None, True]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), st.lists(_weight, max_size=4)
       | st.lists(_weight, max_size=4).map(tuple))
def test_module_weights_are_the_rat_route(dim, weights):
    """The module keeps a tuple of Fractions as it is and reads signs from
    numerators; its weights and errors are those of rat on each weight
    and a Fraction comparison."""
    got = _outcome(lambda: WeightedPolydiscModule(dim, weights).weights)
    assert got == _outcome(module_weights_by_rat, dim, weights)
    assert got[0] == "raised" or all(type(w) is F for w in got)


_battery_weight = st.one_of(st.fractions(min_value=-1, max_value=3,
                                         max_denominator=4),
                            st.integers(-1, 3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_battery_weight, min_size=1, max_size=3),
       st.lists(_battery_weight, min_size=1, max_size=3),
       st.lists(st.integers(0, 3), max_size=3),
       st.none() | st.lists(st.integers(-1, 3), max_size=3))
def test_rigidity_report_is_the_module_route(w1, w2, exponents, gen_vars):
    """The battery over checked weights, with no module built, reports
    and refuses as the route through two WeightedPolydiscModules did."""
    args = (w1, exponents, w2, gen_vars)
    assert _outcome(polydisc_rigidity_report, *args) == \
        _outcome(polydisc_rigidity_report_by_modules, *args)
