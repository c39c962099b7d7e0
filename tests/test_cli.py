import configparser
import dataclasses
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import cli
from submodcurv.cli import (JobConfig, _build_parser, main, parse_config,
                            render_report, run_task)
from submodcurv.errors import InputError
from submodcurv.linalg import leading_principal_minors
from submodcurv.rkhs import DiagonalFilteredKernel, WeightedPolydiscModule

from oracles import (is_hermitian_by_pair_loop, parse_config_by_configparser,
                     parse_rational_by_fraction_str)

BASE = """
[module]
dimension = 2
weights = 1 2

[ideal]
generators = z1, z2

[task]
name = curvature
trunc_degree = 6
"""


def test_parse_config_full():
    cfg = parse_config(BASE)
    assert cfg.task == "curvature"
    assert cfg.dimension == 2
    assert cfg.weights == (F(1), F(2))
    assert cfg.generators == ("z1", "z2")
    assert cfg.trunc_degree == 6
    assert cfg.output == "text"


def test_parse_config_points_and_base():
    cfg = parse_config("""
[module]
dimension = 2
weights = 1 1

[ideal]
generators = z1

[task]
name = kernel
points = 1/5 1/3; 1/7 1/2
base_point = 0 1/3
""")
    assert cfg.points == ((F(1, 5), F(1, 3)), (F(1, 7), F(1, 2)))
    assert cfg.base_point == (F(0), F(1, 3))


@pytest.mark.parametrize("snippet,field", [
    ("[module]\ndimension = 2\nweights = 1 -1\n\n[task]\nname = kernel\n",
     "module.weights"),
    ("[module]\ndimension = 2\nweights = 1\n\n[task]\nname = kernel\n",
     "module.weights"),
    ("[module]\ndimension = x\nweights = 1 1\n\n[task]\nname = kernel\n",
     "module.dimension"),
    ("[task]\nname = dance\n", "task.name"),
    ("[task]\nname = cubic\noutput = yaml\n", "task.output"),
    ("[task]\nname = cubic\ntrunc_degree = 0\n", "task.trunc_degree"),
    ("[module]\ndimension = 2\nweights = 1 1\n\n[task]\nname = kernel\n"
     "points = 2 0\n", "task.points"),
    ("[bogus]\nx = 1\n\n[task]\nname = cubic\n", "bogus"),
    ("[task]\nname = cubic\nmystery = 3\n", "mystery"),
])
def test_parse_config_errors_carry_field(snippet, field):
    with pytest.raises(InputError) as exc:
        parse_config(snippet)
    assert field in str(exc.value)


def test_parse_config_missing_task():
    with pytest.raises(InputError):
        parse_config("[module]\ndimension = 2\nweights = 1 1\n")


def test_parse_config_syntax_error():
    with pytest.raises(InputError):
        parse_config("no sections here\n")


def test_run_curvature_task_values():
    report = run_task(parse_config(BASE))
    results = {r["name"]: r["value"] for r in report.results}
    assert results["det_bundle_curvature_11"] == F(13, 9)
    assert results["det_bundle_curvature_22"] == F(31, 18)
    assert results["closed_form_kappa1"] == F(13, 9)
    # blockwise trace identity visible in the report
    assert (results["curvature_block_11_11"]
            + results["curvature_block_11_22"]) == F(13, 9)


SECOND_VARIABLE = """
[module]
dimension = 2
weights = 1 3

[ideal]
generators = z2^2

[task]
name = {task}
"""


def test_principal_readings_follow_the_generator_variable():
    # <z2^2> over weights (1, 3): the free variable is w1 with weight 1, so
    # the transverse log curvature is 1 and the norm Hessians are
    # poch(3, 2)/2! = 6 and poch(3, 3)/3! = 10, times 1
    report = run_task(parse_config(SECOND_VARIABLE.format(task="curvature")))
    results = {r["name"]: r["value"] for r in report.results}
    assert results["det_bundle_curvature_11"] == 1
    assert results["transverse_log_hessian"] == 1
    assert results["transverse_norm_hessian"] == 6
    report = run_task(parse_config(
        SECOND_VARIABLE.format(task="compare") + "compare_weights = 1 3\n"))
    results = {r["name"]: r["value"] for r in report.results}
    assert results["left_transverse_log_curvature_w1"] == 1
    assert "left_transverse_log_curvature_w2" not in results
    assert results["left_norm_hessian_gen1"] == 6
    assert results["left_norm_hessian_gen1_shifted"] == 10


TRUNCATED_KERNEL = """
[module]
dimension = 2
weights = 1/2 3/2

[ideal]
generators = z1^2, z2

[task]
name = kernel
points = 1/3 1/4
trunc_degree = {degree}
"""


@pytest.mark.xfail(strict=True, reason="the kernel task echoes trunc_degree "
                   "but sums to DiagonalFilteredKernel.default_trunc = 30")
def test_kernel_task_sums_to_the_echoed_trunc_degree():
    kern = DiagonalFilteredKernel(WeightedPolydiscModule(2, (F(1, 2), F(3, 2))),
                                  [(2, 0), (0, 1)])
    point = (F(1, 3), F(1, 4))
    for degree in (3, 12):
        report = run_task(parse_config(TRUNCATED_KERNEL.format(degree=degree)))
        results = {r["name"]: r["value"] for r in report.results}
        want = kern.eval_truncated(point, point, degree)
        assert results["kernel_diag_1"] == want.value
        assert report.diagnostics["kernel_diag_1_remainder_bound"] == \
            float(want.bound)


def test_run_cubic_task():
    report = run_task(parse_config("[task]\nname = cubic\nalpha = 1\n"))
    results = {r["name"]: r["value"] for r in report.results}
    assert results["positive_root_count"] == 1
    assert results["isolating_interval_1"] == [F(1), F(1)]


def test_run_dimension_task():
    report = run_task(parse_config("""
[module]
dimension = 2
weights = 1 1

[ideal]
catalogue = product_difference

[task]
name = dimension
points = 0 0; 1/3 1/3
"""))
    results = {r["name"]: r["value"] for r in report.results}
    assert results["localization_dim_1"] == 2
    assert results["stabilized_at_1"] == 3
    assert results["localization_dim_2"] == 1
    assert report.diagnostics["point_1_on_variety"] is True
    assert report.diagnostics["point_2_on_variety"] is False


def test_run_compare_task():
    report = run_task(parse_config("""
[module]
dimension = 2
weights = 1 2

[ideal]
generators = z1, z2

[task]
name = compare
compare_weights = 2 1
"""))
    results = {r["name"]: r["value"] for r in report.results}
    assert results["equivalent"] is False
    assert results["kappa1_left"] == F(13, 9)
    assert results["kappa1_right"] == F(31, 18)


METRIC = """
[module]
dimension = 3
weights = 1 1 2

[ideal]
generators = z1, z2^2

[task]
name = metric
base_point = 0 0 1/3
trunc_degree = 3
"""


def test_metric_task_checks_its_grammian_once(monkeypatch):
    """The metric task builds one Grammian, which is Hermitian by
    construction (the pair-loop oracle agrees), and reports the leading
    minors that grammian checked."""
    calls = []
    grammian = cli.grammian

    def recorded(frame):
        calls.append(grammian(frame))
        return calls[-1]

    monkeypatch.setattr(cli, "grammian", recorded)
    report = run_task(parse_config(METRIC))
    assert len(calls) == 1
    assert is_hermitian_by_pair_loop(calls[0].matrix)
    results = {r["name"]: r["value"] for r in report.results}
    assert results["hermitian"] is True
    assert results["positive_definite"] is True
    base = [[results[f"metric_at_base_{i}{j}"] for j in (1, 2)]
            for i in (1, 2)]
    minors = leading_principal_minors(base)
    assert [results["principal_minor_1"], results["principal_minor_2"]] == \
        minors
    assert all(d > 0 for d in minors)


def test_decompose_task_builds_generator_polys_once(monkeypatch):
    from submodcurv.frames import FrameSeries
    calls = []
    generator_polys = FrameSeries.generator_polys

    def counted(self):
        calls.append(self)
        return generator_polys(self)

    monkeypatch.setattr(FrameSeries, "generator_polys", counted)
    report = run_task(parse_config(METRIC.replace("name = metric",
                                                  "name = decompose")))
    assert len(calls) == 1
    results = {r["name"]: r["value"] for r in report.results}
    assert [results["generator_1"], results["generator_2"]] == ["z1", "z2^2"]
    assert results["reconstruction_exact"] is True


def test_metric_task_degenerate_frame_exit_3(tmp_path, capsys, monkeypatch):
    build = cli._build_frame

    def null_second_generator(cfg, module, ideal):
        frame = build(cfg, module, ideal)
        return dataclasses.replace(
            frame, lead_coeffs=(frame.lead_coeffs[0], F(0)))

    monkeypatch.setattr(cli, "_build_frame", null_second_generator)
    assert main(["metric", "--config", _write(tmp_path, METRIC)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition violated: frame is linearly dependent (Grammian not "
        "positive definite at the base point; principal minors "
        "[Fraction(81, 64), Fraction(0, 1)])\n")


def test_render_json_is_deterministic_and_parseable():
    cfg = parse_config(BASE)
    r1 = render_report(run_task(cfg), "json")
    r2 = render_report(run_task(cfg), "json")
    assert r1 == r2
    payload = json.loads(r1)
    assert payload["task"] == "curvature"
    names = [r["name"] for r in payload["results"]]
    assert "det_bundle_curvature_11" in names
    val = payload["results"][names.index("det_bundle_curvature_11")]["value"]
    assert val == {"num": 13, "den": 9}
    assert "convention" in payload


def test_render_text_layout():
    cfg = parse_config(BASE)
    text = render_report(run_task(cfg), "text")
    lines = text.splitlines()
    assert lines[0] == "task: curvature"
    assert "  det_bundle_curvature_11 = 13/9" in lines
    assert any(line.startswith("convention:") for line in lines)


# -- entry point and exit codes ----------------------------------------------


def _write(tmp_path, content):
    p = tmp_path / "job.cfg"
    p.write_text(content)
    return str(p)


def test_main_success(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    assert main(["curvature", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "det_bundle_curvature_11 = 13/9" in out


def test_main_config_error_exit_2(tmp_path, capsys):
    path = _write(tmp_path, "[module]\ndimension = 2\nweights = 0 1\n"
                            "\n[task]\nname = kernel\n")
    assert main(["kernel", "--config", path]) == 2
    assert "module.weights" in capsys.readouterr().err


def test_main_missing_file_exit_2(tmp_path, capsys):
    assert main(["cubic", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_main_precondition_exit_3(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    assert main(["curvature", "--config", path, "--trunc-degree", "2"]) == 3
    assert "precondition" in capsys.readouterr().err


def test_main_unsupported_family_exit_4(tmp_path, capsys):
    path = _write(tmp_path, """
[module]
dimension = 2
weights = 1 1

[ideal]
generators = z1 + z2^2

[task]
name = decompose
""")
    assert main(["decompose", "--config", path]) == 4


def test_main_point_override(tmp_path, capsys):
    path = _write(tmp_path, """
[module]
dimension = 2
weights = 1 1

[ideal]
generators = z1

[task]
name = kernel
points = 1/5 1/3
""")
    assert main(["kernel", "--config", path, "--point", "1/2 1/2"]) == 0
    out = capsys.readouterr().out
    assert "kernel_diag_1 = 4/9" in out


@pytest.mark.parametrize("generators,base", [
    ("z1, z2", "0 0 0"),     # coordinate ideal, neighborhood frame
    ("z1", "0 1/3 0"),       # zero-set frame, long base
    ("z1^2", "0"),           # zero-set frame, short base
])
def test_main_base_point_arity_exit_2(tmp_path, capsys, generators, base):
    path = _write(tmp_path, f"""
[module]
dimension = 2
weights = 1 2

[ideal]
generators = {generators}

[task]
name = metric
base_point = {base}
""")
    assert main(["metric", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: base point arity does not match dimension "
        "(field 'task.base_point')\n")


@pytest.mark.parametrize("task", ("decompose", "metric", "curvature",
                                  "compare", "cubic"))
def test_main_point_rejected_by_tasks_without_points(tmp_path, capsys, task):
    path = _write(tmp_path, BASE)
    assert main([task, "--config", path, "--point", "1/2 1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: task {task!r} reads no points; --point applies only "
        "to the kernel and dimension tasks (field '--point')\n")


KERNEL_JOB = """
[module]
dimension = 2
weights = 1 1

[ideal]
generators = z1

[task]
name = kernel
points = 0 0
"""


def _config_error(tmp_path, capsys, task, config, flags=()):
    """The stderr of a job that must fail with exit code 2 and no report."""
    assert main([task, "--config", _write(tmp_path, config), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


# One fault each, given by a flag and by the config key it overrides: both
# get the same check and message, and the --point message names the point.
SHARED_CHECKS = [
    ("kernel", KERNEL_JOB, ("--trunc-degree", "0"),
     "trunc_degree must be >= 1 (field '--trunc-degree')"),
    ("kernel", KERNEL_JOB + "trunc_degree = 0\n", (),
     "trunc_degree must be >= 1 (field 'task.trunc_degree')"),
    ("kernel", KERNEL_JOB, ("--ideal-degree", "0"),
     "ideal_degree must be >= 1 (field '--ideal-degree')"),
    ("kernel", KERNEL_JOB + "ideal_degree = 0\n", (),
     "ideal_degree must be >= 1 (field 'task.ideal_degree')"),
    ("kernel", KERNEL_JOB, ("--point", "2 0"),
     "point (2, 0) lies outside the open polydisc (field '--point')"),
    ("kernel", KERNEL_JOB.replace("points = 0 0", "points = 2 0"), (),
     "point (2, 0) lies outside the open polydisc (field 'task.points')"),
    ("metric", KERNEL_JOB.replace("points = 0 0", "base_point = 2 0"), (),
     "point (2, 0) lies outside the open polydisc (field 'task.base_point')"),
]


@pytest.mark.parametrize("config,flags", [
    (KERNEL_JOB + "trunc_degree = 0\n", ("--trunc-degree", "3")),
    (KERNEL_JOB + "ideal_degree = 0\n", ("--ideal-degree", "3")),
    (KERNEL_JOB.replace("points = 0 0", "points = 2 0"), ("--point", "0 0")),
    (KERNEL_JOB + "output = yaml\n", ("--output", "json")),
], ids=["trunc_degree", "ideal_degree", "points", "output"])
def test_valid_flag_replaces_bad_config_value(tmp_path, capsys, config, flags):
    # the output, degrees and points are checked once the flags are
    # applied, so the job runs as if the file had held the flag's value
    assert main(["kernel", "--config", _write(tmp_path, KERNEL_JOB),
                 *flags]) == 0
    expected = capsys.readouterr().out
    assert main(["kernel", "--config", _write(tmp_path, config), *flags]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_catalogue_with_family_exit_2(tmp_path, capsys):
    # a catalogue ideal has its own family, so a forced family would be
    # ignored while the report echoed it
    config = KERNEL_JOB.replace(
        "generators = z1", "catalogue = product_difference\nfamily = monomial")
    assert _config_error(tmp_path, capsys, "dimension", config) == (
        "config error: give either family or a catalogue name, not both "
        "(field 'ideal.family')\n")


MODULE_2 = "[module]\ndimension = 2\nweights = 1 1\n\n"

# Inputs with two or more faults and the one error reported.  Flags are all
# parsed before any is checked, as config keys are, so in the last three
# cases the --point error comes before the output or degree error.
FIRST_ERRORS = [
    ("kernel", "[module]\ndimension = 0\nweights = 1 -1\n\n"
     "[task]\nname = kernel\n", (),
     "dimension must be >= 1 (field 'module.dimension')"),
    ("kernel", MODULE_2 + "[ideal]\ngenerators = ,\ncatalogue = nope\n\n"
     "[task]\nname = kernel\n", (),
     "give either generators or a catalogue name, not both (field 'ideal')"),
    ("dimension", MODULE_2 + "[ideal]\ncatalogue = product_difference\n"
     "family = monomial\ngenerators = z1\n\n[task]\nname = dimension\n", (),
     "give either generators or a catalogue name, not both (field 'ideal')"),
    ("cubic", "[task]\nname = cubic\ntrunc_degree = 0\nalpha = x\n", (),
     "not a rational number: 'x' (Invalid literal for Fraction: 'x') "
     "(field 'task.alpha')"),
    ("cubic", "[task]\nname = dance\nalpha = x\n", (),
     "not a rational number: 'x' (Invalid literal for Fraction: 'x') "
     "(field 'task.alpha')"),
    ("cubic", "[module]\ndimension = 2\n\n[task]\nname = cubic\n"
     "alpha = x\n", (),
     "[module] needs both dimension and weights (field 'module')"),
    ("kernel", "[module]\ndimension = 2\nweights = 1\n\n[ideal]\n"
     "generators = ,\n\n[task]\nname = kernel\n", (),
     "got 1 weights for dimension 2 (field 'module.weights')"),
    ("kernel", "[module]\ndimension = 2\nweights = 1 -1\n\n[ideal]\n"
     "generators = z1\ncatalogue = x\n\n[task]\nname = kernel\n", (),
     "weights must be positive (field 'module.weights')"),
    ("cubic", "[module]\ndimension = x\nweights = 1 1\n\n[task]\n"
     "name = cubic\nmystery = 1\n", (),
     "not an integer: 'x' (field 'module.dimension')"),
    ("cubic", "[module]\ndimension = x\n\n[bogus]\na = 1\n\n[task]\n"
     "name = cubic\n", (), "unknown section [bogus] (field 'bogus')"),
    ("cubic", "[task]\noutput = yaml\ntrunc_degree = 0\n", (),
     "missing task name ([task] name = ...) (field 'task.name')"),
    ("cubic", "[task]\nname = cubic\noutput = yaml\ntrunc_degree = 0\n", (),
     "output must be text or json (field 'task.output')"),
    ("kernel", KERNEL_JOB.replace("points = 0 0", "points = 2 0\n"
                                  "base_point = 0 3\nideal_degree = 0"), (),
     "ideal_degree must be >= 1 (field 'task.ideal_degree')"),
    ("kernel", KERNEL_JOB + "trunc_degree = 0\n", ("--ideal-degree", "3"),
     "trunc_degree must be >= 1 (field 'task.trunc_degree')"),
    ("kernel", KERNEL_JOB, ("--trunc-degree", "0", "--ideal-degree", "0"),
     "trunc_degree must be >= 1 (field '--trunc-degree')"),
    ("kernel", KERNEL_JOB, ("--trunc-degree", "0", "--point", "2 0"),
     "trunc_degree must be >= 1 (field '--trunc-degree')"),
    ("kernel", KERNEL_JOB, ("--trunc-degree", "0", "--point", "x"),
     "not a rational number: 'x' (Invalid literal for Fraction: 'x') "
     "(field '--point')"),
    ("kernel", KERNEL_JOB + "output = yaml\n", ("--point", "x"),
     "not a rational number: 'x' (Invalid literal for Fraction: 'x') "
     "(field '--point')"),
    ("curvature", KERNEL_JOB, ("--ideal-degree", "0", "--point", "0 0"),
     "task 'curvature' reads no points; --point applies only to the kernel "
     "and dimension tasks (field '--point')"),
]


@pytest.mark.parametrize("task,config,flags,error",
                         SHARED_CHECKS + FIRST_ERRORS,
                         ids=[e for *_, e in SHARED_CHECKS + FIRST_ERRORS])
def test_config_error_message(tmp_path, capsys, task, config, flags, error):
    assert _config_error(tmp_path, capsys, task, config, flags) == \
        f"config error: {error}\n"


def test_percent_in_a_value_is_a_config_error(tmp_path, capsys):
    # a '%' is an ordinary character of a value, not an interpolation
    config = "[task]\nname = cubic\nalpha = 1%\n"
    assert _config_error(tmp_path, capsys, "cubic", config) == (
        "config error: not a rational number: '1%' (Invalid literal for "
        "Fraction: '1%') (field 'task.alpha')\n")


def test_readme_key_table_matches_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {tuple(cell.strip(" `[]") for cell in line.split("|")[1:3])
            for line in readme.splitlines() if line.startswith("| `[")}
    assert rows == {(section, key) for section, keys in cli.SCHEMA.items()
                    for key in keys}


def test_main_subcommand_overrides_config_task(tmp_path, capsys):
    # one config reused for several tasks: the subcommand wins
    path = _write(tmp_path, BASE)
    assert main(["metric", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("task: metric")


def test_main_json_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, BASE)
    assert main(["curvature", "--config", path, "--output", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["curvature", "--config", path, "--output", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second


POINTS_CONFIG = """
; a full-line comment with a semicolon
[module]
dimension = 2
weights = 1 1

[ideal]
generators = z1  # inline comment

[task]
name = kernel
points = {points}
"""


@pytest.mark.parametrize("points", ["1/5 1/3; 1/7 1/2", "1/5 1/3 ; 1/7 1/2"])
def test_points_separator_is_not_a_comment(tmp_path, capsys, points):
    text = POINTS_CONFIG.format(points=points)
    assert parse_config(text).points == ((F(1, 5), F(1, 3)), (F(1, 7), F(1, 2)))
    assert parse_config(text).generators == ("z1",)
    assert main(["kernel", "--config", _write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "kernel_diag_1 = " in out
    assert "kernel_diag_2 = " in out
    assert "kernel_offdiag_12 = " in out


def test_parser_built_once():
    assert _build_parser() is _build_parser()


def _argparse_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


def test_job_after_other_jobs_prints_same_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    path = _write(tmp_path, BASE)
    job = ["curvature", "--config", path, "--output", "json"]
    _build_parser.cache_clear()
    assert main(job) == 0
    alone = capsys.readouterr()
    assert main(["metric", "--config", path, "--trunc-degree", "4"]) == 0
    assert main(["decompose", "--config", path]) == 0
    assert main(["compare", "--config", path, "--point", "0 0"]) == 2
    capsys.readouterr()
    assert _argparse_exit(["dimension", "--config", path, "--bogus"],
                          capsys)[0] == 2
    assert main(job) == 0
    assert capsys.readouterr() == alone


def test_argparse_error_after_success_is_unchanged(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    path = _write(tmp_path, BASE)
    bad = ["curvature", "--config", path, "--trunc-degree", "x"]
    _build_parser.cache_clear()
    first = _argparse_exit(bad, capsys)
    assert main(["curvature", "--config", path]) == 0
    capsys.readouterr()
    assert _argparse_exit(bad, capsys) == first
    assert first[0] == 2
    assert first[1].endswith(
        "submodcurv curvature: error: argument --trunc-degree: invalid int "
        "value: 'x'\n")


def test_usage_wraps_to_columns_at_error_time(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, BASE)
    bad = ["kernel", "--config", path, "--ideal-degree", "many"]
    errors = {}
    for columns in ("200", "40", "80"):
        monkeypatch.setenv("COLUMNS", columns)
        errors[columns] = _argparse_exit(bad, capsys)[1]
        with pytest.raises(SystemExit):
            _build_parser.__wrapped__().parse_args(bad)  # a fresh parser
        assert capsys.readouterr().err == errors[columns], columns
    usage = {c: err.split("\nsubmodcurv kernel: error")[0]
             for c, err in errors.items()}
    assert usage["200"].count("\n") == 0
    assert usage["80"].count("\n") < usage["40"].count("\n")


# parse_config keeps no state between calls: nothing one config leaves
# behind may reach the next.
DEFAULTS_JOB = "[DEFAULT]\nalpha = 2\n\n[task]\nname = cubic\n"
DUPLICATE_JOB = ("[task]\nname = cubic\n\n[module]\ndimension = 2\n\n"
                 "[task]\nalpha = 1\n")


@pytest.fixture
def fresh_reader():
    """The parse of BASE before any other config in the test."""
    return parse_config(BASE)


def test_reader_forgets_defaults(fresh_reader):
    assert parse_config(DEFAULTS_JOB).alpha == 2
    # a kept [DEFAULT] alpha would be an unknown key in [module]
    assert parse_config(BASE) == fresh_reader


def test_reader_forgets_a_read_that_raised(fresh_reader):
    with pytest.raises(InputError, match="config syntax: .*'task' already "
                       "exists"):
        parse_config(DUPLICATE_JOB)
    # a kept [module] would merge with BASE's
    assert parse_config(BASE) == fresh_reader
    assert parse_config("[task]\nname = cubic\nalpha = 1\n").alpha == 1


def test_section_keys_come_before_default_keys():
    with pytest.raises(InputError) as exc:
        parse_config("[DEFAULT]\nfoo = 1\n\n[module]\nbar = 2\n")
    assert str(exc.value) == "unknown key 'bar' in [module] (field 'bar')"


def test_main_builds_no_config_parser(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a ConfigParser was built")

    monkeypatch.setattr(cli.configparser, "ConfigParser", refuse)
    path = _write(tmp_path, BASE)
    assert main(["curvature", "--config", path]) == 0
    assert main(["metric", "--config", path]) == 0


# The line reader against configparser, its reference: drawn config texts,
# well formed and malformed, must give the same JobConfig or the same
# error text and line.
_VALUES = {
    "dimension": ["2"],
    "weights": ["1 2", "1/2 3", "3/2, 5/2"],
    "generators": ["z1, z2", "z1*z2 - z2^2, z1^3 + z2", "z1"],
    "catalogue": ["product_difference"],
    "family": ["general"],
    "name": ["cubic", "kernel", "curvature", "metric"],
    "points": ["1/3 0; 1/5 1/2", "1/3 -1/4"],
    "base_point": ["0 1/3", "1/2 -1/2"],
    "trunc_degree": ["4", "6"],
    "ideal_degree": ["3", "6"],
    "alpha": ["2", "1/2", "-3/4", "+7/14", "1.5", "1e1", "1_0", "\u0663"],
    "compare_weights": ["1 1", "2 1"],
    "output": ["text", "json"],
}
_BAD_VALUES = ["0", "x", "1 -1", "3/0", "1\x0c/2", "yaml", "dance", "nope",
               ",", ""]
_SECTIONS = ["module", "ideal", "task", "DEFAULT", "bogus", "Task"]
_ODD = ["=", ":", "%", ";", "#", " #", "%(x)s", "\x0c", "\x1c", "\r", "\t",
        "\x85", "\u2028", "[", "]", "a", "1", "z1", " "]
_space = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\x1c"])
_odd_text = st.lists(st.sampled_from(_ODD), max_size=4).map("".join)


@st.composite
def _key_line(draw, key, pad=""):
    """key = value, its key in drawn letter case, its value good, bad or
    odd, with drawn spacing, delimiter and tail."""
    value = draw(st.sampled_from(_VALUES.get(key, ["1"])))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        value = draw(st.sampled_from(_BAD_VALUES) | _odd_text)
    elif kind == 1:
        value += draw(st.sampled_from([" # note", "# not a comment",
                                       " ; kept", "%", " = 2", ": 3"]))
    if draw(st.booleans()):
        key = "".join(c.upper() if draw(st.booleans()) else c for c in key)
    return (pad + key + draw(_space) + draw(st.sampled_from("=:"))
            + draw(_space) + value + draw(_space))


_noise_line = st.one_of(
    st.tuples(st.sampled_from(list(_VALUES) + ["mystery", ""]),
              _space).flatmap(lambda key_pad: _key_line(*key_pad)),
    st.builds(lambda pad, name, tail: f"{pad}[{name}]{tail}", _space,
              st.sampled_from(_SECTIONS), st.sampled_from(["", " # c", "x"])),
    st.builds(lambda pad, c, text: pad + c + text, _space,
              st.sampled_from("#;"), _odd_text),
    st.builds(lambda pad, text: "  " + pad + text, _space, _odd_text),
    _space, _odd_text,
    st.sampled_from(["[]", "[module", "= 1", ": x", "\r", "\x0c\x0c"]),
    st.sampled_from(["alpha", "output", "name", "dimension"]).flatmap(
        lambda key: _key_line(key).map(lambda line: "[DEFAULT]\n" + line)),
)


@st.composite
def _config_text(draw):
    """A job's sections, with some of their keys, then noise lines at
    drawn places: none in about half the texts."""
    lines = []
    if draw(st.integers(0, 3)):
        keys = {"task": ["name"] + draw(st.lists(st.sampled_from(
            list(cli.SCHEMA["task"])[1:]), max_size=3, unique=True))}
        if draw(st.booleans()):
            keys["module"] = ["dimension", "weights"]
        if draw(st.booleans()):
            keys["ideal"] = draw(st.sampled_from(
                [["generators"], ["catalogue"], ["generators", "family"]]))
        for section in draw(st.permutations(list(keys))):
            lines.append(f"[{section}]")
            lines.extend(draw(_key_line(key)) for key in keys[section])
            lines.append("")
    for _ in range(draw(st.integers(0, 4)) * draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_noise_line))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n  "]))


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as e:
        return str(e), e.line


def _sections_by_configparser(text):
    """configparser's read of the text as a section -> {key: value} view,
    each section's own keys then the [DEFAULT] keys, and the [DEFAULT]
    keys; or its error."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        return type(e), str(e)
    return ({section: {key: cp.get(section, key)
                       for key in cp.options(section)}
             for section in cp.sections()}, cp.defaults())


def _sections_by_line_reader(text):
    try:
        sections, defaults = cli._read_config(text)
    except configparser.Error as e:
        return type(e), str(e)
    return ({section: {**own, **{key: value for key, value
                                 in defaults.items() if key not in own}}
             for section, own in sections.items()}, defaults)


@settings(max_examples=600, deadline=None)
@given(_config_text())
def test_line_reader_matches_configparser(text):
    assert _sections_by_line_reader(text) == _sections_by_configparser(text)
    assert _outcome(parse_config, text) == \
        _outcome(parse_config_by_configparser, text)


@pytest.mark.parametrize("text", [
    "[task]\nname = cubic\nalpha = 1\x0c/2\n",
    "[task]\nname = cubic\nalpha = 1\n  \n\n   /2\n# c\n",
    "[DEFAULT]\nalpha = 1\n[task]\nname = cubic\n[DEFAULT]\nalpha = 2\n",
    "[DEFAULT]\nalpha = 1\n[task]\nname = cubic\n[DEFAULT]\nAlpha: 2\n",
    "[task]\nname = cubic\n= 1\n= 2\n",
    "[task]\nname = cubic\nno delimiter\n[task]\n",
    "alpha = 1\n[task]\nname = cubic\n",
    "[task] # c\nname = cubic # c\nalpha = 3/4#5\n",
    "[task]\nname = cubic\nalpha = 1/3\n  [module]\n",
    "[task]\r\nname = cubic\r\nalpha = 1\r\n",
    "[DEFAULT]\nalpha = 2\n[task]\nname = cubic\nalpha = 1\n",
    "[DEFAULT]\noutput = json\n[task]\nname = cubic\n",
    "[task]\nname = cubic\n\n[DEFAULT]\nalpha = 1 \n\n",
    "[task]\nname = cubic\n\x0calpha = 1\n",
])
def test_line_reader_matches_configparser_on_edge_cases(text):
    assert _sections_by_line_reader(text) == _sections_by_configparser(text)
    assert _outcome(parse_config, text) == \
        _outcome(parse_config_by_configparser, text)


@settings(max_examples=400, deadline=None)
@given(st.from_regex(r"[ \t]*[+-]?[0-9]{1,4}(/[0-9]{1,3})?[ \t]*",
                     fullmatch=True)
       | st.text(st.sampled_from("0123456789+-/._eE \x0c\u0663\u00b2"),
                 max_size=8))
def test_parse_rational_matches_fraction_str(text):
    def outcome(parse):
        try:
            value = parse(text, "task.alpha")
        except InputError as e:
            return str(e)
        assert type(value) is F
        return value
    assert outcome(cli._parse_rational) == \
        outcome(parse_rational_by_fraction_str)
