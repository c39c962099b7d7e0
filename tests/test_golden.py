"""Golden reports: each tests/golden/<task>/<name>.ini is run through the
CLI as that task, and its stdout must equal <name>.out byte for byte.

The .out files were recorded before the code paths they cover were
rewritten; re-record one only when a report is meant to change.
"""

from pathlib import Path

import pytest

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
