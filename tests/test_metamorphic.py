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
"""

import dataclasses
from fractions import Fraction as F
from pathlib import Path

import pytest

from submodcurv.cli import JobConfig, parse_config, render_report, run_task
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


def _results(cfg, gens, points):
    """The result rows of the kernel task's text report for cfg with the
    generators and points replaced."""
    cfg = dataclasses.replace(cfg, generators=tuple(str(g) for g in gens),
                              points=tuple(points))
    report = run_task(cfg)
    assert report.diagnostics["kernel_variant"] == "gram_form"
    out = render_report(report, "text")
    return out[out.index("results:"):out.index("diagnostics:")]


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
    for relation, other, points in _presentations(gens, cfg.points):
        assert _results(cfg, other, points) == want, relation
