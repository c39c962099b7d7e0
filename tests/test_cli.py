import configparser
import functools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submodcurv import cli
from submodcurv.algebra import ZERO
from submodcurv.cli import (_build_parser, main, parse_config, render_report,
                            run_task)
from submodcurv.errors import InputError, UnsupportedIdealError
from submodcurv.linalg import leading_principal_minors
from submodcurv.rkhs import DiagonalFilteredKernel, WeightedPolydiscModule

from oracles import (is_hermitian_by_pair_loop, matrix_rows_by_fstring,
                     parse_config_by_configparser,
                     parse_rational_by_fraction_str, sections_by_configparser)

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
    results = dict(report.results)
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
    results = dict(report.results)
    assert results["det_bundle_curvature_11"] == 1
    assert results["transverse_log_hessian"] == 1
    assert results["transverse_norm_hessian"] == 6
    report = run_task(parse_config(
        SECOND_VARIABLE.format(task="compare") + "compare_weights = 1 3\n"))
    results = dict(report.results)
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
        results = dict(report.results)
        want = kern.eval_truncated(point, point, degree)
        assert results["kernel_diag_1"] == want.value
        assert report.diagnostics["kernel_diag_1_remainder_bound"] == \
            float(want.bound)


def test_run_cubic_task():
    report = run_task(parse_config("[task]\nname = cubic\nalpha = 1\n"))
    results = dict(report.results)
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
    results = dict(report.results)
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
    results = dict(report.results)
    assert results["equivalent"] is False
    assert results["kappa1_left"] == F(13, 9)
    assert results["kappa1_right"] == F(31, 18)


def test_compare_refuses_other_ideals_with_no_free_variable():
    # on the bidisc only <z1, z2> has closed-form invariants; <z1, z2^2>
    # leaves no transverse direction for the battery either
    cfg = parse_config(MODULE_2 + "[ideal]\ngenerators = z1, z2^2\n\n"
                       "[task]\nname = compare\ncompare_weights = 1 2\n")
    with pytest.raises(UnsupportedIdealError, match="transverse direction"):
        run_task(cfg)


def test_dimension_task_scans_one_degree_past_the_generators_at_least():
    # an ideal_degree below the generators' degree 2 is raised to 3, so the
    # scan reads degrees 2 and 3, where the defect has not settled yet
    report = run_task(parse_config(
        MODULE_2 + "[ideal]\ncatalogue = product_difference\n\n[task]\n"
        "name = dimension\npoints = 1/2 1/3\nideal_degree = 1\n"))
    results = dict(report.results)
    assert results["localization_dim_1"] == 1
    assert results["stabilized_at_1"] is None
    assert report.diagnostics["dims_by_degree_1"] == [[2, 2], [3, 1]]


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
    results = dict(report.results)
    assert results["hermitian"] is True
    assert results["positive_definite"] is True
    base = [[results[f"metric_at_base_{i}{j}"] for j in (1, 2)]
            for i in (1, 2)]
    minors = leading_principal_minors(base)
    assert [results["principal_minor_1"], results["principal_minor_2"]] == \
        minors
    assert all(d > 0 for d in minors)


def test_decompose_rows_are_written_without_poly(perfbench_jobs,
                                                 monkeypatch):
    """decompose writes each generator_k from the frame's variable and
    power: no Poly.__str__ and no format_terms runs while run_task runs.
    Each row is str(Poly.monomial(...)) of that generator, the reference,
    on every golden and pooled decompose config."""
    from submodcurv import algebra, polynomials
    from submodcurv.algebra import unit
    from submodcurv.polynomials import Poly
    texts = [METRIC.replace("name = metric", "name = decompose")]
    texts += [config.read_text(encoding="utf-8") for config in sorted(
        (Path(__file__).parent / "golden" / "decompose").glob("*.ini"))]
    texts += [job.config for workload in perfbench_jobs.WORKLOADS
              for job in perfbench_jobs.pool(workload).values()
              if job.task == "decompose" and job.valid]

    def refuse(*args):
        raise AssertionError("a decompose row written through Poly")

    for text in texts:
        cfg = parse_config(text)
        assert cfg.task == "decompose"
        with monkeypatch.context() as patch:
            patch.setattr(Poly, "__str__", refuse)
            patch.setattr(algebra, "format_terms", refuse)
            patch.setattr(polynomials, "format_terms", refuse)
            report = run_task(cfg)
        frame = cli._build_frame(cfg, cli._build_module(cfg),
                                 cli._build_ideal(cfg))
        m = cfg.dimension
        results = dict(report.results)
        assert [results[f"generator_{k}"]
                for k in range(1, results["frame_count"] + 1)] == [
            str(Poly.monomial(m, unit(m, v, p)))
            for v, p in zip(frame.gen_vars, frame.gen_powers)], text
    results = dict(run_task(parse_config(texts[0])).results)
    assert [results["generator_1"], results["generator_2"]] == ["z1", "z2^2"]
    assert len(texts) > 100


def test_metric_task_degenerate_frame_exit_3(tmp_path, capsys, monkeypatch):
    build = cli._build_frame

    def null_second_generator(cfg, module, ideal):
        frame = build(cfg, module, ideal)
        return frame._replace(lead_coeffs=(frame.lead_coeffs[0], F(0)))

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


@pytest.mark.parametrize("task", ["decompose", "metric", "curvature",
                                  "compare"])
def test_unit_ideal_exit_4_names_the_constant(tmp_path, capsys, task):
    # <1> is the whole ring: its generator uses no variable, so it does not
    # mix variables either
    extra = "compare_weights = 1 3\n" if task == "compare" else ""
    path = _write(tmp_path, "[module]\ndimension = 2\nweights = 1 2\n\n"
                            "[ideal]\ngenerators = 1\n\n"
                            f"[task]\nname = {task}\n{extra}")
    assert main([task, "--config", path]) == 4
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "unsupported ideal family: generator 1 is a constant, so the "
        "ideal is the whole ring; no zero-set frame\n")


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


def test_base_point_arity_is_checked_whatever_the_task(tmp_path, capsys):
    # a kernel job reads no base point, yet a 3-entry one over dimension 2
    # fails as it does for the frame tasks
    config = KERNEL_JOB.replace("points = 0 0",
                                "points = 0 0\nbase_point = 0 0 0")
    assert _config_error(tmp_path, capsys, "kernel", config) == (
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


# Numbers past sys.get_int_max_str_digits(): a value that str() cannot
# write, or digits that int() cannot read, are config errors naming the
# field or the column, not a traceback.
HUGE_NUMBERS = [
    ("cubic", "[task]\nname = cubic\nalpha = 1e4300\n", "field 'task.alpha'"),
    ("cubic", "[task]\nname = cubic\nalpha = -1e-4400\n",
     "field 'task.alpha'"),
    ("kernel", KERNEL_JOB.replace("weights = 1 1", "weights = 1 1e5000"),
     "field 'module.weights'"),
    ("kernel", KERNEL_JOB.replace("generators = z1",
                                  "generators = " + "7" * 4400 + "*z1"),
     "column 1) (field 'ideal.generators'"),
    ("kernel", KERNEL_JOB.replace("generators = z1", "generators = z1^\u00b2"),
     "column 4) (field 'ideal.generators'"),
]


@pytest.mark.parametrize("task, config, where", HUGE_NUMBERS,
                         ids=["alpha", "alpha-denominator", "weight",
                              "coefficient", "superscript-exponent"])
def test_unwritable_numbers_are_config_errors(tmp_path, capsys, task, config,
                                              where):
    err = _config_error(tmp_path, capsys, task, config)
    assert err.startswith("config error: ")
    assert err.endswith(f"({where})\n")
    assert "Traceback" not in err


def test_an_alpha_past_the_cubic_limit_exits_3_at_once(tmp_path, capsys):
    """alpha = 1e4000 parses, but its bisection would take seconds and its
    interval ends would pass the digits str() writes: the job exits 3
    before the bisection, naming alpha's size and the limit."""
    path = _write(tmp_path, "[task]\nname = cubic\nalpha = 1e4000\n")
    start = time.process_time()
    assert main(["cubic", "--config", path]) == 3
    assert time.process_time() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition violated: alpha has 13289 bits in its numerator and "
        "denominator, past the cubic's limit of 4096\n")


@pytest.mark.parametrize("output", ["text", "json"])
def test_a_result_past_the_digit_limit_exits_3(tmp_path, capsys, output):
    """The point 1/(10^3000 + 7) is within the digit limit, but the kernel
    value there is not: in either format the job exits 3 naming the
    limit, and writes nothing to stdout."""
    config = KERNEL_JOB.replace("weights = 1 1", "weights = 1 2").replace(
        "points = 0 0", f"points = 1/{10 ** 3000 + 7} 1/3")
    path = _write(tmp_path, config + f"output = {output}\n")
    assert main(["kernel", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "precondition violated: a result has more digits than the limit of "
        f"{sys.get_int_max_str_digits()} that Python writes "
        "(sys.get_int_max_str_digits())\n")


def test_other_value_errors_of_the_report_propagate(tmp_path, monkeypatch):
    def fail(report, output):
        raise ValueError("another fault")
    monkeypatch.setattr(cli, "render_report", fail)
    with pytest.raises(ValueError, match="another fault"):
        main(["kernel", "--config", _write(tmp_path, KERNEL_JOB)])


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


def test_family_key_exit_2(tmp_path, capsys):
    # the family is read off the generators, so no key can force another
    # kernel route for the same ideal
    config = KERNEL_JOB.replace("generators = z1",
                                "generators = z1\nfamily = general")
    assert _config_error(tmp_path, capsys, "kernel", config) == (
        "config error: unknown key 'family' in [ideal] (field 'family')\n")


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
     "generators = z1\n\n[task]\nname = dimension\n", (),
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


def _error_ids(cases):
    """One id per case: its error text, numbered 0, 1, ... in case order
    where several cases share the text, the ids pytest gave them before
    strict parametrization ids turned repeats into a collection error."""
    texts = [e for *_, e in cases]
    seen = {}
    ids = []
    for e in texts:
        if texts.count(e) > 1:
            seen[e] = seen.get(e, -1) + 1
            e += str(seen[e])
        ids.append(e)
    return ids


@pytest.mark.parametrize("task,config,flags,error",
                         SHARED_CHECKS + FIRST_ERRORS,
                         ids=_error_ids(SHARED_CHECKS + FIRST_ERRORS))
def test_config_error_message(tmp_path, capsys, task, config, flags, error):
    assert _config_error(tmp_path, capsys, task, config, flags) == \
        f"config error: {error}\n"


@pytest.mark.parametrize("task", ["cubic", "compare"])
def test_compare_weights_are_checked_when_read(tmp_path, capsys, task):
    # the schema checks the key whatever the task, as it checks weights:
    # a cubic job that carries it no longer echoes a negative weight
    config = (MODULE_2 + "[ideal]\ngenerators = z1\n\n[task]\n"
              f"name = {task}\nalpha = 2\ncompare_weights = 1 -2\n")
    assert _config_error(tmp_path, capsys, task, config) == (
        "config error: compare_weights must be positive "
        "(field 'task.compare_weights')\n")


@pytest.mark.parametrize("task", ["curvature", "compare"])
def test_compare_weights_length_is_checked_when_read(tmp_path, capsys, task):
    # like its sign, the length of compare_weights is checked whatever the
    # task: a curvature job that carries three for dimension 2 fails
    config = (MODULE_2 + "[ideal]\ngenerators = z1\n\n[task]\n"
              f"name = {task}\ntrunc_degree = 4\ncompare_weights = 1 2 3\n")
    assert _config_error(tmp_path, capsys, task, config) == (
        "config error: compare_weights must match the dimension "
        "(field 'task.compare_weights')\n")


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


def test_readme_read_by_column_is_the_task_table():
    # each key's "Read by" cell names the tasks whose TASKS row reads it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    every = set(cli.TASKS)
    spelled = {"every task": every, "every task but `cubic`": every - {"cubic"}}
    keys = set()
    for line in readme.splitlines():
        if line.startswith("| `["):
            _, key, _, read_by = (cell.strip() for cell in line.split("|")[1:5])
            key = key.strip("`")
            keys.add(key)
            named = spelled.get(read_by) or set(re.findall(r"`(\w+)`", read_by))
            assert named == {name for name, task in cli.TASKS.items()
                             if key in task.reads}, key
    assert set().union(*(task.reads for task in cli.TASKS.values())) <= keys


def test_schema_keys_are_the_jobconfig_fields():
    # parse_config builds JobConfig(task=task, **fields) from SCHEMA's keys,
    # task.name giving task
    keys = [key for section, keys in cli.SCHEMA.items() for key in keys
            if (section, key) != ("task", "name")]
    assert sorted(keys) == sorted(set(cli.JobConfig._fields) - {"task"})
    assert len(cli.JobConfig._fields) == len(keys) + 1


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
    with pytest.raises(InputError, match=r"unknown section \[DEFAULT\]"):
        parse_config(DEFAULTS_JOB)
    # nothing of the refused job reaches the next parse
    assert parse_config(BASE) == fresh_reader


def test_reader_forgets_a_read_that_raised(fresh_reader):
    with pytest.raises(InputError, match="config syntax: .*'task' already "
                       "exists"):
        parse_config(DUPLICATE_JOB)
    # a kept [module] would merge with BASE's
    assert parse_config(BASE) == fresh_reader
    assert parse_config("[task]\nname = cubic\nalpha = 1\n").alpha == 1


def test_section_keys_come_before_default_keys():
    # no [DEFAULT] key reaches a section: the header is an unknown
    # section, refused before the keys of any section are read
    for text in ("[DEFAULT]\nfoo = 1\n\n[module]\nbar = 2\n",
                 "[module]\nbar = 2\n\n[DEFAULT]\nfoo = 1\n"):
        with pytest.raises(InputError) as exc:
            parse_config(text)
        assert str(exc.value) == "unknown section [DEFAULT] (field 'DEFAULT')"


def test_main_builds_no_config_parser(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a RawConfigParser was built")

    monkeypatch.setattr(configparser, "RawConfigParser", refuse)
    path = _write(tmp_path, BASE)
    assert main(["curvature", "--config", path]) == 0
    assert main(["metric", "--config", path]) == 0


# cli's config reader against configparser with its own default section,
# the reference: drawn config texts, well formed and malformed, must give
# the same sections and JobConfig or the same error text and line.
_VALUES = {
    "dimension": ["2"],
    "weights": ["1 2", "1/2 3", "3/2, 5/2"],
    "generators": ["z1, z2", "z1*z2 - z2^2, z1^3 + z2", "z1"],
    "catalogue": ["product_difference"],
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
_SECTIONS = ["module", "ideal", "task", "bogus", "Task"]
_ODD = ["=", ":", "%", ";", "#", " #", "%(x)s", "\x0c", "\x1c", "\r", "\t",
        "\x85", "\u2028", "[", "]", "a", "1", "z1", " "]
_space = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\x1c"])
_odd_text = st.lists(st.sampled_from(_ODD), max_size=4).map("".join)


# every strategy the two builders below draw from that no drawn value
# shapes, built once: a strategy built on every draw is validated on every
# draw, and that cost, not the draws, set this test's time
_VALUE_OF = {key: st.sampled_from(values) for key, values in _VALUES.items()}
_ONE = st.sampled_from(["1"])
_KIND = st.integers(0, 9)
_BAD_VALUE = st.sampled_from(_BAD_VALUES) | _odd_text
_VALUE_TAIL = st.sampled_from([" # note", "# not a comment", " ; kept", "%",
                               " = 2", ": 3"])
_DELIMITER = st.sampled_from("=:")


@st.composite
def _key_line(draw, key, pad=""):
    """key = value, its key in drawn letter case, its value good, bad or
    odd, with drawn spacing, delimiter and tail."""
    value = draw(_VALUE_OF.get(key, _ONE))
    kind = draw(_KIND)
    if kind == 0:
        value = draw(_BAD_VALUE)
    elif kind == 1:
        value += draw(_VALUE_TAIL)
    if draw(st.booleans()):
        key = "".join(c.upper() if draw(st.booleans()) else c for c in key)
    return (pad + key + draw(_space) + draw(_DELIMITER)
            + draw(_space) + value + draw(_space))


@functools.lru_cache(maxsize=128)
def _key_line_of(key, pad=""):
    """_key_line(key, pad), one strategy object per (key, pad)."""
    return _key_line(key, pad)


_noise_line = st.one_of(
    st.tuples(st.sampled_from(list(_VALUES) + ["mystery", ""]),
              _space).flatmap(lambda key_pad: _key_line_of(*key_pad)),
    st.builds(lambda pad, name, tail: f"{pad}[{name}]{tail}", _space,
              st.sampled_from(_SECTIONS), st.sampled_from(["", " # c", "x"])),
    st.builds(lambda pad, c, text: pad + c + text, _space,
              st.sampled_from("#;"), _odd_text),
    st.builds(lambda pad, text: "  " + pad + text, _space, _odd_text),
    _space, _odd_text,
    st.sampled_from(["[]", "[module", "= 1", ": x", "\r", "\x0c\x0c"]),
)
_TASK_KEYS = st.lists(st.sampled_from(list(cli.SCHEMA["task"])[1:]),
                      max_size=3, unique=True)
_IDEAL_KEYS = st.sampled_from([["generators"], ["catalogue"]])
_TEXT_END = st.sampled_from(["", "\n", "\n\n  "])


@st.composite
def _config_text(draw):
    """A job's sections, with some of their keys, then noise lines at
    drawn places: none in about half the texts."""
    lines = []
    if draw(st.integers(0, 3)):
        keys = {"task": ["name"] + draw(_TASK_KEYS)}
        if draw(st.booleans()):
            keys["module"] = ["dimension", "weights"]
        if draw(st.booleans()):
            keys["ideal"] = draw(_IDEAL_KEYS)
        for section in draw(st.permutations(list(keys))):
            lines.append(f"[{section}]")
            lines.extend(draw(_key_line_of(key)) for key in keys[section])
            lines.append("")
    for _ in range(draw(st.integers(0, 4)) * draw(st.integers(0, 1))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_noise_line))
    return "\n".join(lines) + draw(_TEXT_END)


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as e:
        return str(e), e.line


def _sections_by_line_reader(text):
    """cli._read_config's read of the text, the plain reader's or
    configparser's, or the configparser error its InputError is raised
    from."""
    try:
        return cli._read_config(text)
    except InputError as e:
        assert isinstance(e.__cause__, configparser.Error)
        return type(e.__cause__), str(e.__cause__)


@settings(max_examples=600, deadline=None)
@given(_config_text())
def test_line_reader_matches_configparser(text):
    assert _sections_by_line_reader(text) == sections_by_configparser(text)
    assert _outcome(parse_config, text) == \
        _outcome(parse_config_by_configparser, text)


@pytest.mark.parametrize("text", [
    "[task]\nname = cubic\nalpha = 1\x0c/2\n",
    "[task]\nname = cubic\nalpha = 1\n  \n\n   /2\n# c\n",
    "[task]\nname = cubic\n= 1\n= 2\n",
    "[task]\nname = cubic\nno delimiter\n[task]\n",
    "alpha = 1\n[task]\nname = cubic\n",
    "[task] # c\nname = cubic # c\nalpha = 3/4#5\n",
    "[task]\nname = cubic\nalpha = 1/3\n  [module]\n",
    "[task]\r\nname = cubic\r\nalpha = 1\r\n",
    "[task]\nname = cubic\n\x0calpha = 1\n",
])
def test_line_reader_matches_configparser_on_edge_cases(text):
    assert _sections_by_line_reader(text) == sections_by_configparser(text)
    assert _outcome(parse_config, text) == \
        _outcome(parse_config_by_configparser, text)


DEFAULT_DUPLICATE = ("config syntax: While reading from '<string>' "
                     "[line  5]: section 'DEFAULT' already exists")
DEFAULT_UNKNOWN = "unknown section [DEFAULT] (field 'DEFAULT')"


@pytest.mark.parametrize("config,error", [
    ("[DEFAULT]\nalpha = 1\n[task]\nname = cubic\n[DEFAULT]\nalpha = 2\n",
     DEFAULT_DUPLICATE),
    ("[DEFAULT]\nalpha = 1\n[task]\nname = cubic\n[DEFAULT]\nAlpha: 2\n",
     DEFAULT_DUPLICATE),
    ("[DEFAULT]\nalpha = 2\n[task]\nname = cubic\nalpha = 1\n",
     DEFAULT_UNKNOWN),
    ("[DEFAULT]\noutput = json\n[task]\nname = cubic\n", DEFAULT_UNKNOWN),
    ("[task]\nname = cubic\n\n[DEFAULT]\nalpha = 1 \n\n", DEFAULT_UNKNOWN),
], ids=["duplicate", "duplicate-key-case", "shadowed-key", "output",
        "last-section"])
def test_default_section_is_a_config_error(tmp_path, capsys, config, error):
    # [DEFAULT] is a section like any other, and the schema has none of
    # that name; a second header is a duplicate section
    assert _config_error(tmp_path, capsys, "cubic", config) == \
        f"config error: {error}\n"


@settings(max_examples=400, deadline=None)
@example("1E4300")
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
    assert outcome(lambda text, field: cli._parse_rational(text, field)[0]) \
        == outcome(parse_rational_by_fraction_str)


# -- the argv fast path -------------------------------------------------------


def test_console_script_reads_sys_argv(tmp_path, capsys, monkeypatch):
    # the submodcurv console script calls main() with no argv
    path = _write(tmp_path, BASE)
    for flags in ((), ("--output", "json", "--trunc-degree", "5"),
                  ("--trunc-degree=5",), ("--point", "0 0")):
        argv = ["curvature", "--config", path, *flags]
        code = main(argv)
        expected = capsys.readouterr()
        monkeypatch.setattr(cli.sys, "argv", ["submodcurv", *argv])
        assert main() == code
        assert capsys.readouterr() == expected


def test_console_script_help_is_argparse(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli.sys, "argv", ["submodcurv", "kernel", "-h"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: submodcurv kernel")


_ARGV_TOKENS = [
    *cli.TASKS, "dance", "--config", "--output", "--trunc-degree",
    "--ideal-degree", "--point", "--trunc", "--conf", "--config=job.cfg",
    "--output=json", "-h", "--help", "--", "-", "job.cfg", "", "text",
    "json", "yaml", "4", "-3", "+5", " 6 ", "1_0", "4.5", "x", "\u0663",
    "\u00b2", "0", "1/2 0", "-1/2 0", "--point=0 0", "-x", "=4"]


_FLAG_VALUES = {
    "--config": ["job.cfg", "job.cfg", "", "-", "-x", "-h"],
    "--output": ["text", "json", "yaml"],
    "--trunc-degree": ["4", "+5", " 6 ", "1_0", "\u0663", "-3", "4.5", "x"],
    "--ideal-degree": ["6", "0", "\u00b2", "-1"],
    "--point": ["1/2 0", "-1/2 0", "0", "x", "-h"],
}


@st.composite
def _argv(draw):
    """An argv near the canonical form: a task, --config PATH (in most
    argvs) and flags with values in drawn order, then drawn edits that
    may break the form."""
    flags = draw(st.lists(st.sampled_from(list(_FLAG_VALUES)[1:]),
                          max_size=4, unique=draw(st.booleans())))
    if draw(st.integers(0, 4)):
        flags.append("--config")
    argv = [draw(st.sampled_from(list(cli.TASKS)))]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        token = draw(st.sampled_from(_ARGV_TOKENS))
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and at < len(argv):
            argv[at] = token
        else:
            argv.insert(at, token)
    return argv


def _argparse_namespace(argv):
    try:
        return _build_parser().parse_args(argv)
    except SystemExit:
        return None


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([_argv(), _argv(), _argv(), st.lists(
    st.sampled_from(_ARGV_TOKENS), max_size=7)]).flatmap(lambda argv: argv))
def test_canonical_argv_reads_as_argparse_does(argv):
    # the fast path declines an argv or returns the attributes of
    # argparse's Namespace, so every argv argparse refuses is declined and
    # argparse reports it
    fast = cli._canonical_args(argv)
    if fast is not None:
        namespace = _argparse_namespace(argv)
        assert namespace is not None and vars(fast) == vars(namespace)


def test_canonical_argv_cases():
    # the pooled jobs' form, a task and --config PATH, is read; every other
    # form goes to argparse, flags included
    job = ["kernel", "--config", "a.cfg"]
    assert vars(cli._canonical_args(job)) == \
        vars(_build_parser().parse_args(job))
    full = ["kernel", "--config", "a.cfg", "--output", "json",
            "--trunc-degree", "5", "--ideal-degree", "\u0663",
            "--point", "1/2 0"]
    assert vars(_build_parser().parse_args(full)) == {
        "task": "kernel", "config": "a.cfg", "output": "json",
        "trunc_degree": 5, "ideal_degree": 3, "point": "1/2 0"}
    for argv in (full, ["kernel", "--config", "a.cfg", "--output", "text"],
                 ["kernel", "--config", "a.cfg", "--config", "b.cfg"],
                 ["kernel", "--config=a.cfg"],
                 ["kernel", "--conf", "a.cfg"],
                 ["kernel", "-h"], ["kernel", "--config", "-h"],
                 ["kernel", "--config", "a.cfg", "--point", "-1/2 0"],
                 ["kernel", "--config", "a.cfg", "--trunc-degree", "-3"],
                 ["kernel", "--config", "a.cfg", "--trunc-degree", "4.5"],
                 ["kernel", "--config", "a.cfg", "--output", "yaml"],
                 ["kernel", "--output", "json"],
                 ["kernel", "--config"], ["dance", "--config", "a.cfg"], []):
        assert cli._canonical_args(argv) is None, argv


def test_canonical_argv_reads_the_pooled_jobs(perfbench_jobs, capsys):
    """The shortcut reads the argv of every pooled job that passes no flag
    as argparse does, and declines the 17 that pass flags, all of which
    argparse refuses: a pool that adds a valid flag shows up here."""
    flagged = []
    for workload in perfbench_jobs.WORKLOADS:
        for job in perfbench_jobs.pool(workload).values():
            argv = job.argv("job.cfg")
            if not job.extra:
                assert vars(cli._canonical_args(argv)) == \
                    vars(_build_parser().parse_args(argv)), job.key
                continue
            assert cli._canonical_args(argv) is None, job.key
            with pytest.raises(SystemExit):
                _build_parser().parse_args(argv)
            flagged.append(job.key)
    capsys.readouterr()
    assert len(flagged) == 17


def test_add_matrix_names_are_cached_per_name_and_shape():
    """add_matrix gives the f-string rows of the reference for t x t and
    m x m shapes.  One name at two shapes gets each shape's names, which a
    cache keyed by the name alone would not, and a repeated (name, shape)
    formats no name."""
    cli._matrix_names.cache_clear()
    t_rows = [[F(1, 2), F(0)], [F(0), F(3)]]
    m_rows = [[F(k, 7) + j for j in range(4)] for k in range(4)]
    ragged = [[F(1)], [F(2), F(3), F(4)]]
    report = cli.Report("curvature", {})
    want = []
    for name, rows in (("curvature_block_12", t_rows),
                       ("det_bundle_curvature", m_rows),
                       ("curvature_block_12", m_rows),
                       ("curvature_block_12", t_rows),
                       ("curvature_block_12", ragged)):
        report.add_matrix(name, rows)
        want += matrix_rows_by_fstring(name, rows)
    assert report.results == want
    info = cli._matrix_names.cache_info()
    assert (info.hits, info.misses) == (1, 4)
    assert info.maxsize is not None
    cli._matrix_names.cache_clear()


@pytest.mark.parametrize("m,t", [(1, 1), (2, 3), (3, 1), (5, 2)])
def test_add_blocks_writes_add_matrix_rows_block_by_block(m, t):
    """add_blocks gives the f-string rows of the reference for each block
    in turn, as one add_matrix call per block did, shared zero blocks and
    rows included."""
    zero = ((F(0),) * t,) * t
    blocks = tuple(tuple(zero if (i + j) % 2 else tuple(
        tuple(F(i + a, j + b + 1) for b in range(t)) for a in range(t))
        for j in range(m)) for i in range(m))
    report = cli.Report("curvature", {})
    report.add_blocks("curvature_block", blocks)
    want = []
    for i, row in enumerate(blocks, 1):
        for j, block in enumerate(row, 1):
            want += matrix_rows_by_fstring(f"curvature_block_{i}{j}", block)
    assert report.results == want


# -- the config bytes, the memoized ideals and the zero rows -------------------

GOLDEN_CONFIGS = sorted((Path(__file__).parent / "golden").glob("*/*.ini"))


def _run_golden(config, capsys):
    """(exit code, stdout, stderr) of a golden config's job."""
    code = main([config.parent.name, "--config", str(config)])
    out, err = capsys.readouterr()
    return code, out, err


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"[task]\nname = cubic\nalpha = 7/3 \xff\n")
    assert main(["cubic", "--config", str(path)]) == 2
    assert tuple(capsys.readouterr()) == (
        "", "config error: cannot read config: 'utf-8' codec can't decode "
        "byte 0xff in position 32: invalid start byte\n")


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_endings_give_the_lf_bytes(tmp_path, capsys, newline):
    """A config read as bytes ends its lines at '\\r\\n' and at a lone '\\r'
    as text mode does: every golden config with either line ending gives
    the bytes of its LF file."""
    for config in GOLDEN_CONFIGS:
        copy = tmp_path / config.parent.name / config.name
        copy.parent.mkdir(exist_ok=True)
        copy.write_bytes(config.read_bytes().replace(b"\n", newline))
        assert _run_golden(copy, capsys) == _run_golden(config, capsys), \
            config


def test_goldens_read_by_the_plain_reader_give_their_bytes(tmp_path, capsys):
    """Every golden config opens with '#' lines, so test_golden reads it by
    configparser.  With those lines removed each is plain, and the plain
    reader's sections give the same report bytes."""
    for config in GOLDEN_CONFIGS:
        text = "".join(line for line in config.read_text(
            encoding="utf-8").splitlines(keepends=True)
            if not line.startswith("#"))
        assert cli._read_plain_config(text) is not None, config
        copy = tmp_path / config.parent.name / config.name
        copy.parent.mkdir(exist_ok=True)
        copy.write_text(text, encoding="utf-8")
        code, out, err = _run_golden(copy, capsys)
        assert (code, err) == (0, ""), config
        assert out.encode("utf-8") == \
            config.with_suffix(".out").read_bytes(), config


def _ideal_snapshot(ideal):
    """Everything a job reads of an IdealSpec, as new objects."""
    try:
        powers = ideal.coordinate_powers
    except UnsupportedIdealError as e:
        powers = str(e)
    return (ideal.nvars, ideal.family, ideal.point, powers,
            [(g.nvars, list(g.coeffs.items())) for g in ideal.generators])


def test_cross_job_caches_keep_reports_and_ideals(capsys):
    """Every golden job run twice in one process, the second pass in
    reverse order, gives the same bytes, and no job changes an ideal that
    the memo hands to the next: each memoized IdealSpec and its Polys
    keep every coefficient, and the memo still returns the same object."""
    cli._ideal.cache_clear()
    ideals = {}
    for config in GOLDEN_CONFIGS:
        cfg = parse_config(config.read_text(encoding="utf-8"))
        if cfg.dimension and (cfg.generators or cfg.catalogue):
            ideal = cli._build_ideal(cfg)
            ideals[config] = cfg, ideal, _ideal_snapshot(ideal)
    assert len(ideals) >= 30
    first = [_run_golden(config, capsys) for config in GOLDEN_CONFIGS]
    second = [_run_golden(config, capsys)
              for config in reversed(GOLDEN_CONFIGS)][::-1]
    assert second == first
    for config, (cfg, ideal, snapshot) in ideals.items():
        assert cli._build_ideal(cfg) is ideal, config
        assert _ideal_snapshot(ideal) == snapshot, config
    assert cli._ideal.cache_info().maxsize >= len(ideals)


# the standard modules a job imports only on the path that reads them:
# dataclasses (which imports inspect) on none, argparse for an argv that is
# not canonical, configparser for a config that is not plain, json for
# --output json
LAZY_MODULES = ("dataclasses", "inspect", "argparse", "configparser", "json")

_IMPORT_GUARD = """
import sys
bare = set(sys.modules)
from submodcurv import cli
code = cli.main(sys.argv[1:])
sys.stderr.write(" ".join(sorted(set(sys.modules) - bare)))
sys.exit(code)
"""


def test_a_text_job_imports_no_lazy_module(tmp_path, capsys):
    """A fresh interpreter imports submodcurv.cli and runs one canonical
    text job through cli.main.  None of LAZY_MODULES is then loaded that
    the bare interpreter, site's imports included, had not loaded, and the
    report has the bytes of the same job run in this process."""
    argv = ["curvature", "--config", _write(tmp_path, BASE)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, *argv],
                           env=env, capture_output=True, text=True,
                           timeout=60)
    assert main(argv) == 0
    assert (child.returncode, child.stdout) == (0, capsys.readouterr().out)
    loaded = set(child.stderr.split())
    assert "submodcurv.cli" in loaded
    assert loaded.isdisjoint(LAZY_MODULES)


def test_the_cli_imports_no_typing():
    """An interpreter started with -S imports submodcurv.cli and has not
    loaded typing.  Without -S, site may import typing already (a .pth
    file can), and the guard above, which counts only the modules the
    bare interpreter had not loaded, would not see it."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    child = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys\nfrom submodcurv import cli\n"
         "sys.stdout.write(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "submodcurv.cli" in loaded and "typing" not in loaded


def test_zero_rows_are_written_without_fraction_str(monkeypatch):
    """The m = 5 coordinate curvature report: each zero row is the
    package's one zero, written as "0" with no call of Fraction.__str__,
    which the nonzero rows still get once each."""
    config = Path(__file__).parent / "golden/curvature/coordinate-m5-frac.ini"
    report = run_task(parse_config(config.read_text(encoding="utf-8")))
    values = [value for _, value in report.results]
    zeros = sum(value is ZERO for value in values)
    assert zeros == sum(value == 0 for value in values) == 600
    calls = []
    to_text = F.__str__

    def counted(self):
        calls.append(self)
        return to_text(self)
    monkeypatch.setattr(F, "__str__", counted)
    text = render_report(report, "text")
    monkeypatch.undo()
    assert len(calls) == len(values) - zeros
    assert text.encode("utf-8") == config.with_suffix(".out").read_bytes()


_PLAIN_KEY = st.sampled_from(["name", "Name", "dimension", "weights",
                              "generators", "alpha", "trunc_degree", "x"])
_PLAIN_VALUE = st.sampled_from(["cubic", "2", "1 2", "z1, z2", "7/3", "",
                                "a=b", "a:b", "1; 2", " x ", "\x0c1"])
_plain_line = st.one_of(
    st.builds(lambda key, s1, d, s2, value: f"{key}{s1}{d}{s2}{value}",
              _PLAIN_KEY, st.sampled_from(["", " ", "\t"]),
              st.sampled_from("=:"), st.sampled_from(["", " "]),
              _PLAIN_VALUE),
    st.builds("[{}]".format, st.sampled_from(
        ["task", "module", "ideal", "Task", "a]b", " x "])),
    st.just(""))


@settings(max_examples=500, deadline=None)
@given(st.lists(_plain_line, max_size=8).map("\n".join),
       st.sampled_from(["", "\n"]))
def test_plain_config_reader_matches_configparser(body, end):
    """_read_config's reader of plain lines reads a text as configparser
    does, or leaves it to configparser (a repeated section or key);
    either way the config parses as configparser's does."""
    text = body + end
    plain = cli._read_plain_config(text)
    if plain is not None:
        assert plain == sections_by_configparser(text)
    assert _sections_by_line_reader(text) == sections_by_configparser(text)
    assert _outcome(parse_config, text) == \
        _outcome(parse_config_by_configparser, text)


def test_plain_config_reader_reads_the_job_configs(perfbench_jobs):
    """Every pooled job config is plain, so none builds a configparser."""
    for workload in perfbench_jobs.WORKLOADS:
        for job in perfbench_jobs.pool(workload).values():
            assert cli._read_plain_config(job.config) == \
                sections_by_configparser(job.config), job.key
