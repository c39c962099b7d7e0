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
        tracer.begin_job(0, "curvature")
        config = GOLDEN / "curvature" / "zero-set-offbase-m3.ini"
        with redirect_stdout(io.StringIO()):
            assert cli.main(["curvature", "--config", str(config)]) == 0
        tracer.end_job()
    finally:
        tracer.uninstall()
    names = [span[3] for span in tracer.spans]
    assert {"job", "cli.run_task", "frames.frame_on_zero_set",
            "frames.grammian", "curvature.curvature_matrix"} <= set(names)
    # one curvature computation per job, and no series determinant: the
    # det-bundle rows are the trace of the curvature blocks
    assert names.count("curvature.curvature_matrix") == 1
    assert "algebra.SeriesMatrix.det" not in names
    assert tracer.spans[0][6]["counts"]["algebra.series_mul_calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
