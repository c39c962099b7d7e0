"""Shared fixtures."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench_jobs():
    """perfbench/jobs.py, which generates the benchmark's pooled jobs,
    loaded by path (perfbench/ is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", PERFBENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
