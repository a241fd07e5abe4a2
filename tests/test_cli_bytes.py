"""Exact output bytes of the CLI on small configs.

Each case runs one subcommand on a config under ``tests/cli_bytes/`` and
compares the bytes it writes with the pinned output file next to it.  The
pins were written by the CLI itself; a refactor must leave them unchanged,
and a deliberate change of the output format must regenerate them with the
command in the case.
"""

from pathlib import Path

import pytest

from tensortract.cli import EXIT_OK, main

PINS = Path(__file__).parent / "cli_bytes"

CASES = [
    # (subcommand, config stem, extra arguments, pinned output file)
    ("sweep", "sweep_closed", [], "sweep_closed.csv"),
    ("sweep", "sweep_closed", ["--format", "json"], "sweep_closed.json"),
    ("sweep", "sweep_tables", [], "sweep_tables.csv"),
    ("sweep", "sweep_tables", ["--format", "json"], "sweep_tables.json"),
    ("topk", "topk", [], "topk.csv"),
    ("topk", "topk", ["--format", "json"], "topk.json"),
    ("audit", "audit_sandwich", ["--format", "csv"], "audit_sandwich.csv"),
    ("audit", "audit_sandwich", ["--format", "json"], "audit_sandwich.json"),
]


@pytest.mark.parametrize("command,stem,extra,pinned", CASES,
                         ids=[case[3] for case in CASES])
def test_output_bytes_are_pinned(tmp_path, command, stem, extra, pinned):
    out = tmp_path / pinned
    config = PINS / f"{stem}.config.json"
    assert main([command, "--config", str(config), "--out", str(out), *extra]) == EXIT_OK
    assert out.read_bytes() == (PINS / pinned).read_bytes()
