"""Golden reports: each tests/golden/<task>/<name>.ini is run through the
CLI as that task, and its stdout must equal <name>.out byte for byte.

The .out files were recorded before the code paths they cover were
rewritten; re-record one only when a report is meant to change.
"""

from pathlib import Path

import pytest

from submodcurv import linalg, rkhs
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
    so BareissFactor.inverse_form runs on a pinned report."""
    sizes = []
    inverse_form = linalg.BareissFactor.inverse_form

    def recorded(self, u, v):
        sizes.append(len(u))
        return inverse_form(self, u, v)

    monkeypatch.setattr(linalg.BareissFactor, "inverse_form", recorded)
    for config in CONFIGS:
        if config.parent.name == "kernel":
            assert main(["kernel", "--config", str(config)]) == 0
    capsys.readouterr()
    assert any(n > 1 for n in sizes)
