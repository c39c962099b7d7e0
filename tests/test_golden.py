"""Golden reports: each tests/golden/<task>/<name>.ini is run through the
CLI as that task, and its stdout must equal <name>.out byte for byte.

The .out files were recorded before the code paths they cover were
rewritten; re-record one only when a report is meant to change.
"""

from pathlib import Path

import pytest

from submodcurv import algebra, cli, linalg, rkhs
from submodcurv.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(GOLDEN.glob("*/*.ini"))


def test_golden_corpus_present():
    assert len(CONFIGS) >= 5
    for config in CONFIGS:
        assert config.with_suffix(".out").is_file(), config


@pytest.mark.parametrize("config", CONFIGS,
                         ids=[f"{c.parent.name}/{c.stem}" for c in CONFIGS])
def test_golden_report_bytes(config, capsys):
    assert main([config.parent.name, "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == config.with_suffix(".out").read_bytes()


def test_golden_kernel_runs_the_remainder_bound_loop(monkeypatch, capsys):
    """Some golden kernel report sums exact terms in the remainder bound:
    total weight L >= 1 and a first term ratio rho (L + N + 1)/(N + 2) of
    at least 1, so _diagonal_tail_bound enters its summation loop."""
    calls = []
    bound = rkhs._diagonal_tail_bound

    def recorded(total_weight, rho, N):
        calls.append((total_weight, rho, N))
        return bound(total_weight, rho, N)

    monkeypatch.setattr(rkhs, "_diagonal_tail_bound", recorded)
    for config in CONFIGS:
        if config.parent.name == "kernel":
            assert main(["kernel", "--config", str(config)]) == 0
    capsys.readouterr()
    assert any(L >= 1 and rho * (L + N + 1) >= N + 2 for L, rho, N in calls)


def test_golden_kernel_runs_a_gram_block(monkeypatch, capsys):
    """Some golden kernel report evaluates a Gram block larger than 1x1,
    so BareissFactor.solve runs on a pinned report."""
    sizes = []
    solve = linalg.BareissFactor.solve

    def recorded(self, v):
        sizes.append(len(v))
        return solve(self, v)

    monkeypatch.setattr(linalg.BareissFactor, "solve", recorded)
    for config in CONFIGS:
        if config.parent.name == "kernel":
            assert main(["kernel", "--config", str(config)]) == 0
    capsys.readouterr()
    assert any(n > 1 for n in sizes)


def test_golden_kernel_runs_a_rescaled_null_vector(monkeypatch, capsys):
    """Some golden kernel report back-substitutes a Gram-form null vector
    through an echelon lead that does not divide its residual, so
    RowEchelon.null_vector rescales G and returns a denominator D > 1."""
    scales = []
    null_vector = linalg.RowEchelon.null_vector

    def recorded(self, free):
        G, D = null_vector(self, free)
        scales.append(D)
        return G, D

    monkeypatch.setattr(linalg.RowEchelon, "null_vector", recorded)
    for config in CONFIGS:
        if config.parent.name == "kernel":
            assert main(["kernel", "--config", str(config)]) == 0
    capsys.readouterr()
    assert any(D != 1 for D in scales)


def test_golden_frame_tasks_run_no_series_product(monkeypatch, capsys):
    """The metric, curvature and decompose reports read the frame spec: the
    Grammian is a kernel-term sum or an outer product of slot tables, the
    curvature a closed form and the reconstruction check a share sum, so
    no TruncSeries product runs.  Building a frame's vectors, which no task
    does, is the control that the counter counts."""
    calls = []
    mul = algebra.TruncSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(algebra.TruncSeries, "__mul__", counted)
    monkeypatch.setattr(algebra.TruncSeries, "__rmul__", counted)
    tasks = ("metric", "curvature", "decompose")
    configs = [c for c in CONFIGS if c.parent.name in tasks]
    assert {c.parent.name for c in configs} == set(tasks)
    for config in configs:
        assert main([config.parent.name, "--config", str(config)]) == 0
    capsys.readouterr()
    assert calls == []
    cfg = cli.parse_config(configs[0].read_text(encoding="utf-8"))
    module = cli._build_module(cfg)
    cli._build_frame(cfg, module, cli._build_ideal(cfg)).vectors
    assert calls
