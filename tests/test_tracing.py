"""The benchmark's tracer (perfbench/tracing.py) wraps package functions at
every name they are bound under, looked up by dotted name.  A refactor that
renames, moves or inlines one of them makes `perfbench/run.py --trace 1`
fail; these tests catch that without running the benchmark.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import submodcurv.cli as cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """(owner, name) -> value for every attribute of the package's modules
    and of the classes they define."""
    owners = [mod for key, mod in list(sys.modules.items())
              if key == "submodcurv" or key.startswith("submodcurv.")]
    owners += [obj for mod in list(owners) for obj in vars(mod).values()
               if isinstance(obj, type)
               and obj.__module__.startswith("submodcurv")]
    return {(id(owner), key): value
            for owner in owners for key, value in vars(owner).items()}


def test_every_span_and_counter_binds(tracing):
    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        for name in [*tracing.SPANS, *tracing.COUNTERS]:
            bound = tracer._resolve(name)
            assert hasattr(bound, "__wrapped__"), name
        for index, (task, config) in enumerate((
                ("curvature", "zero-set-offbase-m3.ini"),
                ("metric", "zero-set-offbase-rational.ini"))):
            tracer.begin_job(index, task)
            with redirect_stdout(io.StringIO()):
                assert cli.main([task, "--config",
                                 str(GOLDEN / task / config)]) == 0
            tracer.end_job()
    finally:
        tracer.uninstall()
    names = {job: [span[3] for span in tracer.spans if span[2] == job]
             for job in (0, 1)}
    # the curvature job reads the frame spec: no Grammian, no curvature of
    # a metric and no series determinant
    assert {"job", "cli.run_task", "frames.frame_on_zero_set"} <= \
        set(names[0])
    assert not {"frames.grammian", "curvature.curvature_matrix",
                "curvature.det_bundle_curvature",
                "algebra.SeriesMatrix.det"} & set(names[0])
    # the metric job builds the Grammian and checks its leading principal
    # minors once; the series products counted below come from the
    # tracer's own _frame_terms, which reads frame.vectors, as the task
    # itself runs none (test_golden_frame_tasks_run_no_series_product)
    assert names[1].count("frames.grammian") == 1
    assert names[1].count("linalg.leading_principal_minors") == 1
    metric_root = next(span for span in tracer.spans
                       if span[2] == 1 and span[3] == "job")
    assert metric_root[6]["counts"]["algebra.series_mul_calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_kernel_spans_carry_their_sizes(tracing):
    """The Gram build span reads the candidate count off its arguments and
    the basis size off the kernel it returns; the monomial kernel's
    truncated sums record their multi-index counts."""
    tracer = tracing.Tracer().install()
    try:
        for index, config in enumerate(("gram-blocks.ini",
                                        "monomial-half-bounded.ini")):
            tracer.begin_job(index, "kernel")
            with redirect_stdout(io.StringIO()):
                assert cli.main(["kernel", "--config",
                                 str(GOLDEN / "kernel" / config)]) == 0
            tracer.end_job()
    finally:
        tracer.uninstall()

    def attrs(job, name):
        return [span[6] for span in tracer.spans
                if span[2] == job and span[3] == name]
    # z1^2 + z1*z2 + z2^2 at N = 6: its C(6, 2) = 15 multiples of degree
    # <= 6 are independent, so every candidate is kept
    assert attrs(0, "rkhs.GramFormKernel.from_ideal") == \
        [{"candidates": 15, "basis": 15}]
    assert attrs(1, "rkhs.GramFormKernel.from_ideal") == []
    sums = attrs(1, "rkhs.DiagonalFilteredKernel.eval_truncated")
    assert sums and all(a == {"terms": 5456} for a in sums)  # C(30 + 3, 3)
    metrics = tracing.layer_metrics([
        dict(zip(("id", "parent", "job", "name", "start_ns", "end_ns",
                  "attrs"), span)) for span in tracer.spans])
    assert [metrics[name]["value"] for name in (
        "rkhs.gram_candidates", "rkhs.gram_basis")] == [15, 15]
