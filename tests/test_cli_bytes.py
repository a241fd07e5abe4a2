"""Exact output bytes of the CLI on small configs.

Each case runs one subcommand on a config under ``tests/cli_bytes/`` and
compares the bytes it writes with the pinned output file next to it, both
through ``--out`` and on stdout.  The pins were written by the CLI itself; a
refactor must leave them unchanged, and a deliberate change of the output
format must regenerate them with the command in the case.
"""

from pathlib import Path

import pytest

from tensortract.cli import EXIT_OK, EXIT_RUNTIME, main

PINS = Path(__file__).parent / "cli_bytes"

CASES = [
    # (subcommand, config stem, extra arguments, pinned output file, exit code)
    ("sweep", "sweep_closed", [], "sweep_closed.csv", EXIT_OK),
    ("sweep", "sweep_closed", ["--format", "json"], "sweep_closed.json", EXIT_OK),
    ("sweep", "sweep_tables", [], "sweep_tables.csv", EXIT_OK),
    ("sweep", "sweep_tables", ["--format", "json"], "sweep_tables.json", EXIT_OK),
    # d = 20 and d = 30 share the active prefix at both E: one count is
    # reused, and one budget_exceeded row is repeated.
    ("sweep", "sweep_memo", [], "sweep_memo.csv", EXIT_RUNTIME),
    ("sweep", "sweep_memo", ["--format", "json"], "sweep_memo.json", EXIT_RUNTIME),
    # The cells of one E share the counter's head steps.  At E = 9 the
    # budget of 23,500 passes d = 10 (23,487 entries) and stops d = 20 and 30
    # (23,633), whose shared head step no longer fits after its tail steps.
    ("sweep", "sweep_shared", [], "sweep_shared.csv", EXIT_RUNTIME),
    ("sweep", "sweep_shared", ["--format", "json"], "sweep_shared.json", EXIT_RUNTIME),
    # The eigenvalue index at E = 1e308 exceeds the float range: a
    # non_compact row, not a traceback.
    ("count", "count_non_compact", [], "count_non_compact.csv", EXIT_RUNTIME),
    # A search cap of 1 does not bound a resolvable index: j_eps is 3 at
    # E = 0.1, where a zero prefix puts L(3) below 2E.
    ("sweep", "sweep_search_cap", [], "sweep_search_cap.csv", EXIT_OK),
    ("topk", "topk", [], "topk.csv", EXIT_OK),
    ("topk", "topk", ["--format", "json"], "topk.json", EXIT_OK),
    # A budget_exceeded row after a full tie class: columns mixing int or
    # float cells with empty strings.
    ("topk", "topk_budget", [], "topk_budget.csv", EXIT_RUNTIME),
    ("topk", "topk_budget", ["--format", "json"], "topk_budget.json", EXIT_RUNTIME),
    # Two positive eigenvalues padded with inf costs to k = 5.
    ("topk", "topk_padded", [], "topk_padded.csv", EXIT_OK),
    ("topk", "topk_padded", ["--format", "json"], "topk_padded.json", EXIT_OK),
    # Tie classes: at d = 10 the 1006 rows hold 426 distinct costs, rank 1
    # at cost 0.
    ("topk", "topk_ties", [], "topk_ties.csv", EXIT_OK),
    ("topk", "topk_ties", ["--format", "json"], "topk_ties.json", EXIT_OK),
    ("audit", "audit_sandwich", ["--format", "csv"], "audit_sandwich.csv", EXIT_OK),
    ("audit", "audit_sandwich", ["--format", "json"], "audit_sandwich.json", EXIT_OK),
    # The only output that prints summed tables (partial sums and tail bounds).
    ("audit", "audit_summability", ["--format", "csv"], "audit_summability.csv", EXIT_OK),
    ("audit", "audit_summability", ["--format", "json"], "audit_summability.json", EXIT_OK),
    # Verdict evidence: Growth and LimitEstimate dataclasses, with one skipped
    # EXP-QPT probe (d(eps) = 1 at E = 2).
    ("classify", "classify_qpt", ["--format", "json"], "classify_qpt.json", EXIT_OK),
    # The s < 1, t = 1 boundary: ratio probes, a dict witness and a null exponent.
    ("classify", "classify_st_weak", ["--format", "json"], "classify_st_weak.json", EXIT_OK),
    # EXP-SPT fails early because the weights do not tend to 0; d(eps) is
    # unresolvable, so each probe is skipped with the NonCompact text.
    ("classify", "classify_spt_fails", ["--format", "json"], "classify_spt_fails.json", EXIT_OK),
    # At every E of the default probe grid the eigenvalue index exceeds the
    # float range: each probe is skipped with the NonCompact text.
    ("classify", "classify_skipped_probe", ["--format", "json"], "classify_skipped_probe.json",
     EXIT_OK),
    # s > 1, t = 1 with lambda_2 = 1 and no weight below one: the weight
    # conditions and a DivergenceResult with its probes.
    ("classify", "classify_weak_fails", ["--format", "json"], "classify_weak_fails.json", EXIT_OK),
    # log(1/lambda_j)**2 passes the float range at every probe index: the
    # probe ratios saturate to inf instead of raising OverflowError.
    ("classify", "classify_saturated_ratio", ["--format", "json"], "classify_saturated_ratio.json",
     EXIT_OK),
]


@pytest.mark.parametrize("command,stem,extra,pinned,code", CASES,
                         ids=[case[3] for case in CASES])
def test_output_bytes_are_pinned(tmp_path, capsys, command, stem, extra, pinned, code):
    out = tmp_path / pinned
    argv = [command, "--config", str(PINS / f"{stem}.config.json"), *extra]
    expected = (PINS / pinned).read_bytes()
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == expected
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == expected
