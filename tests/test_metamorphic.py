"""Metamorphic tests: the kernel task's values depend on the submodule [I],
not on how I is presented.

Each input is a Gram-form kernel job (a general ideal given by explicit
generators).  Each relation rewrites the generators, and the points where
it must, into another presentation of the same ideal, or of its image
under a unitary of the module; the rows under "results:" of the text
report must stay byte-identical.  The relations:
- the generators in another order;
- one generator times a nonzero rational;
- a generator z^beta p_j or p_i + p_j appended, the sum only when its
  degree is max(deg p_i, deg p_j): a sum whose top degree cancels adds
  a lower-degree element, which can enlarge the truncated span V_N;
- z_i -> -z_i in every generator and every point, a diagonal unitary
  that maps monomials to monomials of the same norm.

A permutation of the variables, applied to the generators, the weights
and every point together, is a unitary between two modules; it must leave
the rows byte-identical too.  It runs on the Gram-form inputs and on one
golden kernel config of each other route: a monomial ideal (the filtered
diagonal sum) and the vanishing ideal of a point (the rank-one correction).

The frame tasks (curvature, metric, decompose, compare) read a monomial
ideal through its minimal generating set: a generator with a constant
factor, or one that another generator divides, reports what the minimal
set reports, while the input echo keeps the generators as given.

The metric task on a zero-set frame keeps its result rows and its
diagonal_scales when the free slots are permuted with their weights and
base coordinates.  The decompose and metric tasks follow a permutation
of all the variables, generator variables included, with the weights and
the base point: each frame vector moves to the place of its renamed
generator in variable order, keeping its lead coefficient and its metric
values, and every Grammian entry is the old one with its variables
renamed.  The curvature task, run through cli.main, moves each
row with the permutation: a variable permutation of the coordinate ideal's
weights, or of a zero-set job's generators, weights and base point, moves
det_bundle_curvature_kq to the permuted (k, q) and curvature_block_kq_ij to
the permuted block and frame indices.

A disc automorphism phi_c(z) = (z - c)/(1 - c z) on each free slot of a
coordinate-power ideal fixes the ideal and maps the origin slice to the
base point c (ROADMAP item 22): each curvature row over the free slots k,
q at c is the origin row over (1 - c_k^2)(1 - c_q^2).  The principal
pair's log reading does not follow it yet, a strict xfail (ROADMAP
item 2).

Swapping the compare task's two modules, [module] weights with
compare_weights, swaps every left_/right_ and _left/_right row and keeps
equivalent, on the lambda-mu path and on the rigidity battery.

The dimension task's report must not depend on the presentation either:
the generators reordered, or a redundant member appended.  Both are
strict xfails today (ROADMAP items 4 and 13), and so is the kernel task
with a redundant member whose degree is below the top degree of the
generators it is built from (ROADMAP item 15).
"""

import contextlib
import io
import itertools
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodcurv import cli
from submodcurv.cli import (JobConfig, main, parse_config, render_report,
                            run_task)
from submodcurv.frames import grammian
from submodcurv.polynomials import Poly, parse_poly

GOLDEN_KERNEL = Path(__file__).parent / "golden" / "kernel"


def _gram_form_jobs():
    """name -> JobConfig: the golden kernel configs whose generators are
    given explicitly and make a Gram-form kernel, and one ideal in two
    variables."""
    jobs = {"m2-general": JobConfig(
        task="kernel", dimension=2, weights=(F(1), F(2)),
        generators=("z1*z2 - z2^2", "z1^3 + z2"),
        points=((F(1, 3), F(-1, 5)), (F(1, 2), F(1, 4))))}
    for path in sorted(GOLDEN_KERNEL.glob("*.ini")):
        cfg = parse_config(path.read_text())
        if cfg.generators and _variant(cfg) == "gram_form":
            jobs[path.stem] = cfg
    return jobs


def _variant(cfg):
    return run_task(cfg).diagnostics["kernel_variant"]


JOBS = _gram_form_jobs()


def _results(cfg, gens, points, weights=None):
    """The kernel variant and the result rows of the kernel task's text
    report for cfg with the generators, the points and, when given, the
    weights replaced."""
    cfg = cfg._replace(
        generators=tuple(str(g) for g in gens), points=tuple(points),
        weights=cfg.weights if weights is None else tuple(weights))
    report = run_task(cfg)
    out = render_report(report, "text")
    return (report.diagnostics["kernel_variant"],
            out[out.index("results:"):out.index("diagnostics:")])


def _flip(poly: Poly, i: int) -> Poly:
    """poly(z) with z_i replaced by -z_i."""
    return Poly(poly.nvars, {k: -v if k[i] % 2 else v
                             for k, v in poly.coeffs.items()})


def _presentations(gens, points):
    """(relation, generators, points) for each relation that applies."""
    m = gens[0].nvars
    yield "reordered", gens[::-1], points
    yield "scaled", [gens[0] * F(-3, 2)] + gens[1:], points
    beta = tuple(int(i == m - 1) for i in range(m))
    yield "shifted multiple", gens + [gens[0].shift_by_monomial(beta)], points
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            total = gens[i] + gens[j]
            if total.degree == max(gens[i].degree, gens[j].degree):
                yield f"sum {i + 1}+{j + 1}", gens + [total], points
    for i in range(m):
        flipped = [tuple(-x if k == i else x for k, x in enumerate(p))
                   for p in points]
        yield f"flip z{i + 1}", [_flip(g, i) for g in gens], flipped


def test_inputs_cover_the_golden_gram_form_kernels():
    assert {"general-m3-N6", "principal-m3-N6"} <= set(JOBS)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_kernel_results_depend_on_the_submodule(name):
    cfg = JOBS[name]
    gens = [parse_poly(src, cfg.dimension) for src in cfg.generators]
    want = _results(cfg, gens, cfg.points)
    assert want[0] == "gram_form"
    for relation, other, points in _presentations(gens, cfg.points):
        assert _results(cfg, other, points) == want, relation


# V_N is the span of the generator multiples of degree <= N, which can be
# smaller than I cap P_N; a redundant member of lower degree then enlarges
# it.  ROADMAP item 15 builds the Gram form from a reduced Groebner basis.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: appending z1^2, "
                   "which lies in <z1 - z2^2, z2^3>, enlarges V_6 (gram "
                   "basis 22 -> 25) and moves kernel_diag_1")
def test_kernel_results_survive_a_redundant_member_of_lower_degree():
    cfg = JobConfig(task="kernel", dimension=2, weights=(F(1), F(2)),
                    generators=("z1 - z2^2", "z2^3"),
                    points=((F(1, 3), F(1, 5)),), ideal_degree=6)
    p, q = (parse_poly(src, 2) for src in cfg.generators)
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    member = (z1 + z2 ** 2) * p + z2 * q
    assert member == z1 ** 2
    assert _results(cfg, [p, q, member], cfg.points) == \
        _results(cfg, [p, q], cfg.points)


def _permute(poly: Poly, perm) -> Poly:
    """poly with variable k of the result standing for variable perm[k]."""
    return Poly(poly.nvars, {tuple(key[s] for s in perm): v
                             for key, v in poly.coeffs.items()})


PERMUTED = {**JOBS, **{
    name: parse_config((GOLDEN_KERNEL / f"{name}.ini").read_text())
    for name in ("monomial-half-bounded", "point-half-bounded")}}


def test_permuted_inputs_cover_every_kernel_route():
    assert {_variant(cfg) for cfg in PERMUTED.values()} == {
        "gram_form", "diagonal_filtered", "rank_one_corrected"}


@pytest.mark.parametrize("name", sorted(PERMUTED))
def test_kernel_results_survive_variable_permutations(name):
    cfg = PERMUTED[name]
    gens = [parse_poly(src, cfg.dimension) for src in cfg.generators]
    want = _results(cfg, gens, cfg.points)
    for perm in itertools.permutations(range(cfg.dimension)):
        got = _results(cfg, [_permute(g, perm) for g in gens],
                       [[p[s] for s in perm] for p in cfg.points],
                       [cfg.weights[s] for s in perm])
        assert got == want, perm


def _dimension_rows(generators, points):
    """The results and diagnostics of the dimension task's text report for
    the generators at the points, with weights (1, 1)."""
    cfg = JobConfig(task="dimension", dimension=2, weights=(F(1), F(1)),
                    generators=generators, points=points, ideal_degree=8)
    out = render_report(run_task(cfg), "text")
    return out[out.index("results:"):out.index("convention:")]


DIMENSION_POINTS = ((F(0), F(0)), (F(1, 3), F(1, 3)))


# The dimension report reads point_k_on_variety and conditional_k off the
# family of the generator tuple, so another presentation of the same ideal
# gets other rows.  ROADMAP item 13 reports both from the ideal alone.
@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: only the "
                   "catalogued order of z1*z2, z1 - z2 reports "
                   "point_k_on_variety; the reversed order is general and "
                   "reports conditional_k instead")
def test_dimension_report_survives_reordered_generators():
    assert _dimension_rows(("z1 - z2", "z1*z2"), DIMENSION_POINTS) == \
        _dimension_rows(("z1*z2", "z1 - z2"), DIMENSION_POINTS)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the redundant "
                   "member z1*z2 makes z1^2, z2 a mixed monomial ideal, "
                   "which reports no point_k_on_variety rows")
def test_dimension_report_survives_a_redundant_generator():
    assert _dimension_rows(("z1^2", "z2", "z1*z2"), DIMENSION_POINTS) == \
        _dimension_rows(("z1^2", "z2"), DIMENSION_POINTS)


# (given generators, the minimal generating set they normalise to)
FRAME_PRESENTATIONS = [
    (("3*z1^2",), ("z1^2",)),
    (("z1^2", "z1^3"), ("z1^2",)),
    (("z1", "z1*z2"), ("z1",)),
    (("z2^2", "-1/2*z1", "z1*z2^3", "2*z1", "z1^4"), ("z1", "z2^2")),
]


def _frame_report(task, generators):
    """(input echo, results and diagnostics) of the text report of a frame
    task for the generators over weights (1, 2, 3/2) at base (0, 0, 1/3)."""
    cfg = JobConfig(task=task, dimension=3, weights=(F(1), F(2), F(3, 2)),
                    generators=generators, base_point=(F(0), F(0), F(1, 3)),
                    compare_weights=(F(1), F(2), F(5, 2)))
    out = render_report(run_task(cfg), "text")
    return out[:out.index("results:")], out[out.index("results:"):]


@pytest.mark.parametrize("task", ["curvature", "metric", "decompose",
                                  "compare"])
@pytest.mark.parametrize("given,minimal", FRAME_PRESENTATIONS)
def test_frame_tasks_read_the_minimal_monomial_generators(task, given,
                                                          minimal):
    echo, rows = _frame_report(task, given)
    assert rows == _frame_report(task, minimal)[1]
    assert f"generators = [{', '.join(given)}]" in echo


# (generators, weights, base point) of zero-set metric jobs in four
# variables, with c != 0 on exactly the free slots.  Their bases 1 - c^2
# coincide in pairs, so the base-point constant merges factors:
# (3/4)^(-2) * (8/9)^(-5/6) for the first, a rational for the second.
FREE_SLOT_JOBS = [
    (("z2^2",), (F(1, 2), F(3, 2), F(1, 3), F(2)),
     (F(1, 3), F(0), F(-1, 3), F(1, 2))),
    (("z1", "z3^2"), (F(1), F(1, 2), F(2), F(3, 2)),
     (F(0), F(1, 2), F(0), F(-1, 2))),
]


def _metric_rows(generators, weights, base):
    """The result rows and the diagonal_scales diagnostic of a metric job."""
    report = run_task(JobConfig(task="metric", dimension=4, weights=weights,
                                generators=generators, base_point=base))
    return report.results, report.diagnostics.get("diagonal_scales")


@pytest.mark.parametrize("generators,weights,base", FREE_SLOT_JOBS)
def test_metric_survives_free_slot_permutations(generators, weights, base):
    """Permuting the free slots with their weights and base coordinates
    keeps metric_at_base_*, every principal minor and diagonal_scales."""
    free = [i for i, c in enumerate(base) if c]
    want = _metric_rows(generators, weights, base)
    assert want[1] == (["(3/4)^(-2) * (8/9)^(-5/6)"] if len(free) == 3
                       else None)
    for perm in itertools.permutations(free):
        w, b = list(weights), list(base)
        for old, new in zip(free, perm):
            w[new], b[new] = weights[old], base[old]
        assert _metric_rows(generators, tuple(w), tuple(b)) == want, perm


def _curvature_rows(tmp_path, generators, weights, base=None):
    """name -> value text of the result rows of a curvature job run through
    cli.main on a config file, in the variables of the weights."""
    m = len(weights)
    lines = ["[module]", f"dimension = {m}",
             f"weights = {' '.join(map(str, weights))}", "[ideal]",
             f"generators = {', '.join(generators)}", "[task]",
             "name = curvature", "trunc_degree = 4"]
    if base is not None:
        lines.append(f"base_point = {' '.join(map(str, base))}")
    path = tmp_path / "curvature.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["curvature", "--config", str(path)]) == 0
    text = out.getvalue()
    rows = text[text.index("results:\n"):text.index("diagnostics:")]
    return dict(line.strip().split(" = ") for line in rows.splitlines()[1:])


_CURVATURE_ROW = re.compile(
    r"(?:det_bundle_curvature_(\d)(\d)|curvature_block_(\d)(\d)_(\d)(\d))$")


def _moved(name, sigma, tau):
    """The row name with block indices k, q moved by sigma and inner frame
    indices i, j by tau, all counted from 1."""
    match = _CURVATURE_ROW.match(name)
    assert match, name
    k, q, bk, bq, i, j = (None if g is None else int(g) - 1
                          for g in match.groups())
    if k is not None:
        return f"det_bundle_curvature_{sigma[k] + 1}{sigma[q] + 1}"
    return (f"curvature_block_{sigma[bk] + 1}{sigma[bq] + 1}"
            f"_{tau[i] + 1}{tau[j] + 1}")


@pytest.mark.parametrize("m", [3, 4])
def test_coordinate_curvature_survives_variable_permutations(tmp_path, m):
    """Permuting the weights of the coordinate ideal's curvature job moves
    each det_bundle_curvature_kq row to (sigma k, sigma q) and each
    curvature_block_kq_ij row to (sigma k, sigma q, sigma i, sigma j): frame
    vector i is z_i's."""
    weights = (F(1, 2), F(3, 2), F(2), F(5, 3))[:m]
    gens = [f"z{v + 1}" for v in range(m)]
    want = _curvature_rows(tmp_path, gens, weights)
    assert len(want) == m * m + m ** 4
    for sigma in itertools.permutations(range(m)):
        moved = [None] * m
        for old, new in enumerate(sigma):
            moved[new] = weights[old]
        got = _curvature_rows(tmp_path, gens, moved)
        assert {_moved(name, sigma, sigma): value
                for name, value in want.items()} == got, sigma


def test_zero_set_curvature_survives_variable_permutations(tmp_path):
    """<z1^2, z3> at (0, 1/3, 0) over (1, 3/2, 2), with its generators,
    weights and base permuted: the block indices follow the variables and
    the inner frame indices follow the sorted generator variables."""
    weights, base = (F(1), F(3, 2), F(2)), (F(0), F(1, 3), F(0))
    powers = {0: 2, 2: 1}  # generator variable -> power
    want = _curvature_rows(tmp_path, ["z1^2", "z3"], weights, base)
    assert want["curvature_block_22_11"] == want["curvature_block_22_22"] \
        != "0"
    for sigma in itertools.permutations(range(3)):
        moved_w, moved_b = [None] * 3, [None] * 3
        for old, new in enumerate(sigma):
            moved_w[new], moved_b[new] = weights[old], base[old]
        gens = [f"z{sigma[v] + 1}" + ("^2" if p == 2 else "")
                for v, p in powers.items()]
        # frame vector a is the generator of the a-th smallest variable
        order = sorted(sigma[v] for v in powers)
        tau = [order.index(sigma[v]) for v in sorted(powers)]
        got = _curvature_rows(tmp_path, gens, moved_w, moved_b)
        assert {_moved(name, sigma, tau): value
                for name, value in want.items()} == got, sigma


MOBIUS_WEIGHTS = (F(1), F(2), F(3), F(1, 2), F(3, 2), F(5, 2))


def _zero_set_curvature(weights, generators, base):
    """name -> value of the result rows of a curvature job."""
    return dict(run_task(JobConfig(
        task="curvature", dimension=len(weights), weights=weights,
        generators=generators, base_point=base)).results)


@st.composite
def _mobius_jobs(draw):
    """(weights, generators, base): t < m <= 4 coordinate powers z_v^p with
    p <= 3, and a base point that is 0 on the generator variables and a
    rational in (-1, 1) on each free slot."""
    m = draw(st.integers(2, 4))
    gen_vars = draw(st.lists(st.integers(0, m - 1), min_size=1,
                             max_size=m - 1, unique=True))
    gens = tuple(_power_text(v, draw(st.integers(1, 3))) for v in gen_vars)
    weights = tuple(draw(st.sampled_from(MOBIUS_WEIGHTS)) for _ in range(m))
    base = []
    for v in range(m):
        den = draw(st.integers(2, 9))
        base.append(F(0) if v in gen_vars else
                    F(draw(st.integers(1 - den, den - 1)), den))
    return weights, gens, tuple(base)


@settings(max_examples=60, deadline=None)
@given(job=_mobius_jobs())
def test_zero_set_curvature_follows_the_disc_automorphisms(job):
    """phi_c(z) = (z - c)/(1 - c z) on each free slot fixes the ideal, so
    the bundle at base c is the pull-back of the bundle at the origin
    slice: each det_bundle_curvature_kq and curvature_block_kq_ij row at c
    is the origin row times 1/((1 - c_k^2)(1 - c_q^2))."""
    weights, gens, base = job
    at_c = _zero_set_curvature(weights, gens, base)
    at_0 = _zero_set_curvature(weights, gens, (F(0),) * len(weights))
    rows = [name for name in at_0 if _CURVATURE_ROW.match(name)]
    assert len(rows) == len(weights) ** 2 * (1 + len(gens) ** 2)
    for name in rows:
        k, q = [int(g) - 1 for g in _CURVATURE_ROW.match(name).groups()
                if g][:2]
        assert at_c[name] == at_0[name] / (
            (1 - base[k] ** 2) * (1 - base[q] ** 2)), name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the principal pair "
                   "prints its origin value off the base point")
def test_transverse_log_hessian_follows_the_disc_automorphisms():
    """The relation above for the principal pair's log reading on the
    bidisc: transverse_log_hessian at (0, c) is its origin value over
    (1 - c^2)^2."""
    weights, base = (F(1), F(5, 2)), (F(0), F(3, 8))
    for gens in (("z1",), ("z1^2",), ("z1^3",)):
        at_c = _zero_set_curvature(weights, gens, base)
        at_0 = _zero_set_curvature(weights, gens, (F(0), F(0)))
        assert at_c["transverse_log_hessian"] == \
            at_0["transverse_log_hessian"] / (1 - base[1] ** 2) ** 2, gens


# (weights, generators as (variable, power) or None for the coordinate
# ideal, base point) of frame jobs for the decompose and metric relations
VARIABLE_JOBS = [
    ((F(1), F(2), F(3, 2)), None, (F(0),) * 3),
    ((F(1), F(2), F(3, 2)), ((0, 1), (2, 2)), (F(0), F(1, 3), F(0))),
    ((F(1, 2), F(3, 2), F(5, 3), F(2)), ((1, 2), (3, 1)),
     (F(1, 3), F(0), F(-1, 4), F(0))),
]


def _power_text(v, p):
    return f"z{v + 1}" + (f"^{p}" if p > 1 else "")


def _renamed_job(task, sigma, weights, gens, base):
    """(config, tau): the job with variable i renamed sigma[i], its weight
    and base coordinate moved with it, and tau[a] the new index of frame
    vector a, since the frame orders its generators by variable."""
    m = len(weights)
    gens = tuple((v, 1) for v in range(m)) if gens is None else gens
    moved_w, moved_b = [None] * m, [None] * m
    for old, new in enumerate(sigma):
        moved_w[new], moved_b[new] = weights[old], base[old]
    order = sorted(sigma[v] for v, _ in gens)
    tau = [order.index(sigma[v]) for v, _ in sorted(gens)]
    cfg = JobConfig(task=task, dimension=m, weights=tuple(moved_w),
                    generators=tuple(_power_text(sigma[v], p)
                                     for v, p in gens),
                    base_point=tuple(moved_b), trunc_degree=4)
    return cfg, tau


@pytest.mark.parametrize("weights,gens,base", VARIABLE_JOBS)
def test_decompose_survives_variable_permutations(weights, gens, base):
    """Renaming the variables, with the weights and the base point, moves
    frame vector a to tau(a), with its generator renamed and its lead
    coefficient kept; frame_count, frame_kind and reconstruction_exact stay,
    and the base point and free variables are renamed."""
    m = len(weights)
    cfg, _ = _renamed_job("decompose", range(m), weights, gens, base)
    want = run_task(cfg)
    rows = dict(want.results)
    data = sorted(((v, 1) for v in range(m)) if gens is None else gens)
    free = [int(w[1:]) - 1 for w in want.diagnostics["free_variables"]]
    for sigma in itertools.permutations(range(m)):
        cfg, tau = _renamed_job("decompose", sigma, weights, gens, base)
        got = run_task(cfg)
        moved = {name: value for name, value in rows.items()
                 if not name.startswith(("generator_", "lead_coefficient_"))}
        for a, (v, p) in enumerate(data):
            moved[f"generator_{tau[a] + 1}"] = _power_text(sigma[v], p)
            moved[f"lead_coefficient_{tau[a] + 1}"] = \
                rows[f"lead_coefficient_{a + 1}"]
        assert [name for name, _ in got.results] == \
            [name for name, _ in want.results]
        assert dict(got.results) == moved, sigma
        assert got.diagnostics["base_point"] == \
            [str(x) for x in cfg.base_point]
        assert got.diagnostics["free_variables"] == \
            [f"w{i + 1}" for i in sorted(sigma[i] for i in free)]
        assert got.diagnostics["splitting_rule"] == \
            want.diagnostics["splitting_rule"]


def _renamed_key(key, sigma):
    """A series key with slot i of each half moved to slot sigma[i]."""
    m = len(sigma)
    out = [0] * (2 * m)
    for i, new in enumerate(sigma):
        out[new], out[m + new] = key[i], key[m + i]
    return tuple(out)


def _metric_of(cfg):
    module = cli._build_module(cfg)
    return grammian(cli._build_frame(cfg, module, cli._build_ideal(cfg)))


@pytest.mark.parametrize("weights,gens,base", VARIABLE_JOBS)
def test_metric_survives_variable_permutations(weights, gens, base):
    """Renaming the variables, generator variables included, with the
    weights and the base point, moves metric_at_base_ab to (tau a, tau b)
    and diagonal_scales entry a to tau a, and keeps hermitian,
    positive_definite and the last principal minor; the others are the
    running products of the moved diagonal.  Grammian entry (tau a, tau b)
    is entry (a, b) with its variables renamed."""
    m = len(weights)
    cfg, _ = _renamed_job("metric", range(m), weights, gens, base)
    want, H = run_task(cfg), _metric_of(cfg)
    rows = dict(want.results)
    t = H.size
    assert t >= 2
    for sigma in itertools.permutations(range(m)):
        cfg, tau = _renamed_job("metric", sigma, weights, gens, base)
        report, H1 = run_task(cfg), _metric_of(cfg)
        got = dict(report.results)
        for a, b in itertools.product(range(t), repeat=2):
            assert got[f"metric_at_base_{tau[a] + 1}{tau[b] + 1}"] == \
                rows[f"metric_at_base_{a + 1}{b + 1}"]
            assert H1.matrix[tau[a], tau[b]].coeffs == {
                _renamed_key(k, sigma): x
                for k, x in H.matrix[a, b].coeffs.items()}, sigma
        for name in ("hermitian", "positive_definite", f"principal_minor_{t}"):
            assert got[name] == rows[name], (sigma, name)
        diagonal = [got[f"metric_at_base_{k}{k}"] for k in range(1, t + 1)]
        assert [got[f"principal_minor_{k}"] for k in range(1, t + 1)] == \
            list(itertools.accumulate(diagonal, lambda x, y: x * y))
        scales = report.diagnostics.get("diagonal_scales")
        want_scales = want.diagnostics.get("diagonal_scales")
        assert scales == (None if want_scales is None else
                          [want_scales[tau.index(k)] for k in range(t)])


def _compare_rows(dimension, generators, weights, compare_weights):
    cfg = JobConfig(task="compare", dimension=dimension, weights=weights,
                    generators=generators, compare_weights=compare_weights)
    return dict(run_task(cfg).results)


def _swap_sides(name):
    for a, b in (("left", "right"), ("right", "left")):
        if name.startswith(f"{a}_"):
            return f"{b}_" + name[len(a) + 1:]
        if name.endswith(f"_{a}"):
            return name[:-len(a)] + b
    return name


# (dimension, generators): the bidisc coordinate ideal takes the lambda-mu
# path, the others the rigidity battery
COMPARE_IDEALS = [(2, ("z1", "z2")), (2, ("z1^2",)), (3, ("z1", "z2^2")),
                  (3, ("z3^3",))]
_weight = st.fractions(min_value=F(1, 4), max_value=F(4), max_denominator=4)


@pytest.mark.parametrize("dimension,generators", COMPARE_IDEALS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_compare_swapped_modules_swap_sides(dimension, generators, data):
    weights, compare_weights = (
        tuple(data.draw(st.lists(_weight, min_size=dimension,
                                 max_size=dimension)))
        for _ in range(2))
    rows = _compare_rows(dimension, generators, weights, compare_weights)
    swapped = _compare_rows(dimension, generators, compare_weights, weights)
    assert {_swap_sides(name): value for name, value in rows.items()} == \
        swapped
    assert "equivalent" in rows
    assert any(name != _swap_sides(name) for name in rows)


@pytest.mark.parametrize("dimension,generators", COMPARE_IDEALS)
def test_compare_of_a_module_with_itself(dimension, generators):
    weights = tuple(F(k + 2, 2) for k in range(dimension))
    rows = _compare_rows(dimension, generators, weights, weights)
    assert rows["equivalent"] is True
    assert {_swap_sides(name): value for name, value in rows.items()} == rows
