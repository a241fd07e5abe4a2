import contextlib
import csv
import io
import json
import math
import struct
import tempfile
import tracemalloc
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import example, given, settings, strategies as st

from tensortract import (BudgetExceeded, EigenSeq, Query, Tabulated, WeightSeq, cli, complexity,
                         family_from_descriptor, top_eigenvalues)
from tensortract.cli import (EXIT_AUDIT, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, TOPK_COLUMNS,
                             _cell, _dump_json, _write_rows, main)
from tensortract.tractability import DEFAULT_POLICY
from tensortract.verify import AuditReport

LN2 = math.log(2.0)
POWER_LAW = {"family": "power_law", "a": 2.0}
EXP_POWER = {"family": "exp_power", "alpha": 1.0, "beta": 1.0}
DOUBLE_EXP = {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def dyadic_config(**extra):
    cfg = {
        "schema": 1,
        "lambda": {"family": "exp_power", "alpha": LN2, "beta": 1.0},
        "gamma": {"family": "constant_one"},
        "queries": {"E": [0.5 * math.log(5.0)], "d": [2]},
    }
    cfg.update(extra)
    return cfg


# (id, entries replaced in dyadic_config()): each config makes every subcommand
# exit with one "config error: " line on stderr.  The CI step "CLI config
# errors" runs these through `python -m tensortract` as well.
CONFIG_ERRORS = [
    ("node_budget", {"limits": {"node_budget": "abc"}}),
    ("d", {"queries": {"E": [1.0], "d": ["x"]}}),
    ("E", {"queries": {"E": ["x"], "d": [1]}}),
    ("k", {"k": "many"}),
    ("d-not-list", {"queries": {"E": [1.0], "d": 5}}),
    ("E_grid-not-list", {"probes": {"E_grid": 5}}),
    ("j_grid-not-list", {"probes": {"j_grid": 7}}),
    ("probes-not-object", {"probes": []}),
    ("limits-not-object", {"limits": []}),
    ("output-not-object", {"output": []}),
    ("output-path-not-str", {"output": {"path": 5}}),
    ("table-entry-str", {"lambda": {"family": "tabulated", "values": ["a"]}}),
    ("table-entry-bool", {"lambda": {"family": "tabulated", "values": [True, 2]}}),
    ("prefix-entry-bool", {"gamma": {"family": "eventually_zero", "j_star": 2, "prefix": [True]}}),
    # Strings are not numbers, even when float parses them; a table entry
    # "inf", the reports' spelling of an infinite cost, is the one exception.
    ("E-str", {"queries": {"E": ["1.0"], "d": [1]}}),
    ("d-str", {"queries": {"E": [1.0], "d": ["2"]}}),
    ("param-str", {"lambda": {"family": "power_law", "a": "2"}}),
    ("table-entries-str", {"lambda": {"family": "tabulated", "values": ["0", "1.5"]}}),
    ("table-str", {"lambda": {"family": "tabulated", "values": "123"}}),
    # Each closed-form parameter is checked by the family base class; LogPower
    # adds beta > 1.
    ("exp_power-beta-zero", {"lambda": {"family": "exp_power", "alpha": 1.0, "beta": 0}}),
    ("double_exp_power-alpha-bool",
     {"lambda": {"family": "double_exp_power", "alpha": True, "beta": 1.0}}),
    ("triple_exp-alpha-negative", {"lambda": {"family": "triple_exp", "alpha": -1}}),
    ("log_power-beta-one", {"lambda": {"family": "log_power", "beta": 1}}),
    ("log_power-beta-str", {"lambda": {"family": "log_power", "beta": "x"}}),
    # Audit settings are parsed with the rest of the config, before any suite runs.
    ("audit-draws", {"audit": {"suites": ["sandwich", "power_sum"], "power_sum_draws": 2.5}}),
    # An audit size below 1 would run an empty suite that passes.
    ("audit-instances-negative", {"audit": {"suites": ["oracle"], "instances": -3}}),
    ("audit-draws-negative", {"audit": {"suites": ["power_sum"], "power_sum_draws": -7}}),
    # A probe grid the estimates cannot run on is rejected up front, not skipped.
    ("E_grid-below-one", {"probes": {"E_grid": [0.5, 10]}}),
    # The grid the classify_spt_fails pin ran on before the check.
    ("E_grid-below-one-spt", {"lambda": {"family": "power_law", "a": 2.0},
                              "notion": {"kind": "exp_spt"}, "probes": {"E_grid": [0.5, 2.0]}}),
    ("E_grid-empty", {"probes": {"E_grid": []}}),
    ("E_grid-decreasing", {"probes": {"E_grid": [100, 10]}}),
    # An integer probe index past the float range, which float(j) cannot read.
    ("j_grid-past-float-range", {"probes": {"j_grid": [4, 10**400]}}),
    ("E-and-log10_inv_eps", {"queries": {"E": [1.0], "log10_inv_eps": [1.0], "d": [2]}}),
    # The notion is parsed with the rest of the config, whichever subcommand runs.
    ("notion-kind-unknown", {"notion": {"kind": "exp_nope"}}),
]


def test_public_names_are_not_submodules():
    # The submodules stay importable by name, as `from tensortract import cli`
    # above, but are not public names: "public names" counts the API only.
    import tensortract

    star = {}
    exec("from tensortract import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(tensortract.__all__)
    assert not [n for n, v in star.items() if isinstance(v, ModuleType)]
    assert {"cli", "complexity", "errors", "seqcore", "tractability", "verify"}.isdisjoint(star)


class TestCount:
    def test_dyadic_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dyadic_config())
        assert main(["count", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        header = out[0].split(",")
        row = dict(zip(header, out[1].split(",")))
        assert row["count"] == "6"
        assert row["d"] == "2"
        assert row["error"] == ""

    def test_flat_weights_read_d_or_the_search_cap(self, tmp_path, capsys):
        # constant_one weights never fall below eps**2: d_eps is unresolvable,
        # so it reads the row's d, or limits.search_cap when one is set.
        for extra, d_eps in (({}, "2"), ({"limits": {"search_cap": 5}}, "5")):
            cfg = write_config(tmp_path, "c.json", dyadic_config(**extra))
            assert main(["count", "--config", cfg]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            row = dict(zip(out[0].split(","), out[1].split(",")))
            assert (row["d"], row["d_eps"], row["count"], row["error"]) == ("2", d_eps, "6", "")

    def test_count_rejects_grids(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dyadic_config(
            queries={"E": [1.0, 2.0], "d": [2]}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG

    def test_budget_error_row_and_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dyadic_config(
            queries={"E": [8.0], "d": [6]},
            gamma={"family": "exp_power", "alpha": 1.0, "beta": 1.0},
            limits={"node_budget": 10}))
        assert main(["count", "--config", cfg]) == EXIT_RUNTIME
        out = capsys.readouterr().out.splitlines()
        assert out[1].endswith("budget_exceeded")


class TestSweep:
    def test_rows_ordered_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {
            "schema": 1,
            "lambda": {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0},
            "gamma": {"family": "double_exp_power", "alpha": 1.0, "beta": 2.0},
            "queries": {"E": [10.0, 100.0], "d": [5, 2]},
        })
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        keys = [(line.split(",")[1], float(line.split(",")[0])) for line in lines[1:]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("lam,gam,Es,ds,budget,calls", [
        # d = 20 and d = 30 share the active prefix at both E.
        (POWER_LAW, EXP_POWER, [8.0, 9.0], [10, 20, 30], None, 4),
        # The active prefix is 7 at d = 7 and 8 at d = 10: two counts, which
        # share the head steps before coordinate 7.
        (DOUBLE_EXP, DOUBLE_EXP, [3000.0], [7, 10], None, 2),
        # A budget between the cells' 7,411 and 7,452 entries, smaller cell
        # first: the second cell finds a stored head step whose entries no
        # longer fit after its tail steps, and counts it again to raise.
        (POWER_LAW, EXP_POWER, [8.0], [10, 20], 7431, 2),
        # Smaller cell last: d = 6 needs 7,599 entries and raises after its
        # head steps; d = 7 needs 7,174 and reuses them.
        (POWER_LAW, EXP_POWER, [8.0], [6, 7], 7400, 2),
        # J = 54 <= _BLOCK_MIN: a level list and list heads, at m = 5 and 7.
        (POWER_LAW, EXP_POWER, [4.0], [5, 10], None, 2),
        # m = 3 < _SPLIT_MIN_COORDS grows its head alone, and m = 10 shares it.
        (POWER_LAW, EXP_POWER, [9.0], [3, 10], None, 2),
    ], ids=["power_law-exp_power", "double_exp", "budget-smaller-first",
            "budget-smaller-last", "level-list", "head-only"])
    def test_count_is_reused_per_active_prefix(self, tmp_path, monkeypatch, lam, gam, Es, ds,
                                               budget, calls):
        limits = {} if budget is None else {"limits": {"node_budget": budget}}
        cfg = write_config(tmp_path, "m.json", {
            "schema": 1, "lambda": lam, "gamma": gam, "queries": {"E": Es, "d": ds}, **limits})
        pair = EigenSeq(family_from_descriptor(lam)), WeightSeq(family_from_descriptor(gam))
        seen, steps = [], []
        real = cli.info_complexity
        monkeypatch.setattr(cli, "info_complexity",
                            lambda *args, **kw: seen.append(args[2]) or real(*args, **kw))
        for name in ("_extend_head", "_extend_head_array"):
            step = getattr(complexity, name)
            # (B, g, reach_next) names a head step; the head steps before it
            # are the same in every cell of one E.
            monkeypatch.setattr(complexity, name, lambda head, g, reach, levels, B, room, step=step:
                                steps.append((B, g, reach)) or step(head, g, reach, levels, B, room))
        out = tmp_path / "m.csv"
        code = main(["sweep", "--config", cfg, "--out", str(out)])
        assert code == (EXIT_OK if budget is None else EXIT_RUNTIME)
        assert len(seen) == calls
        shared, steps[:] = list(steps), []
        kw = {} if budget is None else {"node_budget": budget}
        for q in seen:
            with contextlib.suppress(BudgetExceeded):
                real(*pair, q, **kw)
        assert len(shared) < len(steps)
        if budget is None:
            assert len(shared) == len(set(shared)) == len(set(steps))
        for row in csv.DictReader(io.StringIO(out.read_text())):
            got = (row["count"], row["nodes"], row["truncated_dimension"], row["error"])
            try:
                res = real(*pair, Query(float(row["E"]), int(row["d"])), **kw)
            except BudgetExceeded:
                assert got == ("", "", "", "budget_exceeded")
            else:
                assert got == (str(res.count), str(res.nodes_visited),
                               str(res.truncated_dimension), "")

    def test_lone_cells_share_no_heads(self, tmp_path, monkeypatch):
        # count, and a sweep whose E rows hold one cell each, pass no _heads.
        seen = []
        real = cli.info_complexity
        monkeypatch.setattr(cli, "info_complexity",
                            lambda *args, **kw: seen.append(kw.get("_heads")) or real(*args, **kw))
        for command, queries in (("count", {"E": [8.0], "d": [10]}),
                                 ("sweep", {"E": [6.0, 8.0], "d": [10]})):
            cfg = write_config(tmp_path, "c.json", {
                "schema": 1, "lambda": POWER_LAW, "gamma": EXP_POWER, "queries": queries})
            assert main([command, "--config", cfg, "--out", str(tmp_path / "c.csv")]) == EXIT_OK
        assert seen == [None, None, None]

    def test_shared_heads_are_released_per_E(self):
        """Four E rows peak no higher than the largest alone, plus 64 KiB: the
        head steps an E row shares, 165 KiB here if kept, are dropped before
        the next E is counted.  Each grid runs once untraced, as a warm-up."""
        pair = EigenSeq(family_from_descriptor(POWER_LAW)), WeightSeq(
            family_from_descriptor(EXP_POWER))

        def peak(Es):
            cfg = cli.RunConfig(*pair, E_list=Es, d_list=[10, 20, 30], notion=None,
                                node_budget=10**8, search_cap=None, k=1, policy=DEFAULT_POLICY,
                                audit={}, out_format="csv", out_path=None)
            cli.run_count(cfg)
            tracemalloc.start()
            try:
                cli.run_count(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        Es = [6.0, 8.0, 9.0, 9.5]
        assert peak(Es) <= max(peak([E]) for E in Es) + 64 * 1024

    def test_generator_grid(self, tmp_path):
        cfg = write_config(tmp_path, "g.json", dyadic_config(
            queries={"E": {"kind": "double_exponential", "base": 10.0, "count": 2},
                     "d": [1]}))
        out = tmp_path / "g.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [100.0, 10000.0]

    def test_log10_units(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "l.json", dyadic_config(
            queries={"log10_inv_eps": [2.0], "d": [1]}))
        assert main(["count", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert float(out[1].split(",")[0]) == pytest.approx(2.0 * math.log(10.0))


class TestClassify:
    def test_verdict_json(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {
            "schema": 1,
            "lambda": {"family": "double_exp_power", "alpha": 1.0, "beta": 1.0},
            "gamma": {"family": "double_exp_power", "alpha": 1.0, "beta": 2.0},
            "notion": {"kind": "exp_spt"},
            "output": {"format": "json"},
        })
        out = tmp_path / "v.json.out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["verdict"]["status"] == "holds"
        assert doc["verdict"]["exponent"] == 0
        assert doc["verdict"]["evidence"]

    def test_unsupported_notion_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "v.json", {
            "schema": 1,
            "lambda": {"family": "power_law", "a": 2.0},
            "gamma": {"family": "constant_one"},
            "notion": {"kind": "st_wt", "s": 0.5, "t": 0.5},
            "output": {"format": "json"},
        })
        assert main(["classify", "--config", cfg]) == EXIT_CONFIG
        assert "unsupported notion" in capsys.readouterr().err

    def test_classify_requires_json(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {
            "schema": 1,
            "lambda": {"family": "power_law", "a": 2.0},
            "gamma": {"family": "constant_one"},
            "notion": {"kind": "exp_wt"},
        })
        assert main(["classify", "--config", cfg, "--format", "csv"]) == EXIT_CONFIG


class TestTopk:
    def test_dyadic_spectrum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t.json", dyadic_config(
            queries={"E": [1.0], "d": [2]}, k=6))
        assert main(["topk", "--config", cfg]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        costs = [float(r.split(",")[2]) for r in rows]
        assert costs == [0.0, LN2, LN2, 2 * LN2, 2 * LN2, 2 * LN2]


class TestAudit:
    def test_green_audit(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", dyadic_config(
            audit={"instances": 25, "power_sum_draws": 100, "seed": 5}))
        out = tmp_path / "a.csv"
        assert main(["audit", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert all(",true," in line for line in lines[1:])

    def test_sandwich_budget_rows(self, tmp_path, capsys):
        # Cells past the node budget are failed rows with the error text, not a crash.
        cfg = write_config(tmp_path, "a.json", dyadic_config(audit={"suites": ["sandwich"]}))
        assert main(["audit", "--config", cfg, "--node-budget", "3"]) == EXIT_AUDIT
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        budget = [r for r in rows if r["note"].startswith("BudgetExceeded: ")]
        assert budget and all((r["check"], r["passed"], r["lhs"], r["rhs"])
                              == ("count_sandwich", "false", "", "") for r in budget)

    def test_oracle_suite_past_the_node_budget(self, tmp_path, capsys):
        # The oracle suite does not turn BudgetExceeded into a row: the audit
        # stops with main's runtime error and writes no partial report.
        cfg = write_config(tmp_path, "a.json", dyadic_config(audit={"suites": ["oracle"]}))
        assert main(["audit", "--config", cfg, "--node-budget", "1"]) == EXIT_RUNTIME
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("runtime error: BudgetExceeded: node budget exceeded")

    def test_unknown_suite_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "a.json", dyadic_config(audit={"suites": ["nope"]}))
        assert main(["audit", "--config", cfg]) == EXIT_CONFIG


class TestConfigErrors:
    def test_nonmonotone_table_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            **{"lambda": {"family": "tabulated", "values": [0.0, 1.0, 0.5]}}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG
        assert "non-decreasing" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["count", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_overflowing_E_generator(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            queries={"E": {"kind": "double_exponential", "base": 10, "count": 10}, "d": [1]}))
        assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "overflow" in err

    def test_missing_table_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            **{"lambda": {"family": "tabulated", "path": "absent.txt"}}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path / "absent.txt") in err

    def test_bad_E_values(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            queries={"E": [-1.0], "d": [1]}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG

    def test_unknown_family(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            **{"lambda": {"family": "surprise"}}))
        assert main(["count", "--config", cfg]) == EXIT_CONFIG

    def test_zero_k_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(k=0))
        assert main(["topk", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("extra", [extra for _, extra in CONFIG_ERRORS],
                             ids=[name for name, _ in CONFIG_ERRORS])
    def test_unparsable_values_rejected(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, "b.json", dyadic_config(**extra))
        for command in ("count", "sweep", "topk", "classify", "audit"):
            assert main([command, "--config", cfg]) == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("config error: ") and err.count("\n") == 1

    def test_audit_settings_checked_before_any_suite(self, tmp_path, capsys, monkeypatch):
        def no_auditing(*args, **kwargs):
            raise AssertionError("audited before the audit settings were checked")

        monkeypatch.setattr(cli, "check_count_sandwich", no_auditing)
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            audit={"suites": ["sandwich", "power_sum"], "power_sum_draws": 2.5}))
        assert main(["audit", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "power_sum_draws must be an integer" in err

    @pytest.mark.parametrize("audit, argv, seed", [
        ({}, [], 0), ({}, ["--seed", "7"], 7), ({"seed": 5}, ["--seed", "7"], 5)],
        ids=["default", "flag", "config-over-flag"])
    def test_audit_seed_precedence(self, tmp_path, monkeypatch, audit, argv, seed):
        seen = []
        monkeypatch.setattr(cli, "power_sum_suite",
                            lambda draws, seed: seen.append(seed) or AuditReport("x", ()))
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            audit={"suites": ["power_sum"], **audit}))
        assert main(["audit", "--config", cfg, "--out", str(tmp_path / "a.csv"), *argv]) == EXIT_OK
        assert seen == [seed]

    @pytest.mark.parametrize("budget", ["-3", "0"])
    def test_nonpositive_node_budget_flag_rejected(self, tmp_path, capsys, budget):
        cfg = write_config(tmp_path, "b.json", dyadic_config())
        assert main(["count", "--config", cfg, "--node-budget", budget]) == EXIT_CONFIG
        assert "node_budget must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("sweep", {"queries": {"E": [1.0], "d": [2.7]}}),
        ("sweep", {"limits": {"node_budget": 1000.5}}),
        ("sweep", {"limits": {"search_cap": 2.5}}),
        ("topk", {"k": 3.5}),
        ("sweep", {"probes": {"j_grid": [16, 2.5]}}),
        ("sweep", {"queries": {"E": {"kind": "double_exponential", "count": 2.5}, "d": [1]}}),
        ("audit", {"audit": {"suites": ["oracle"], "instances": 1.5}}),
        ("audit", {"audit": {"suites": ["oracle"], "seed": 0.5}}),
        ("audit", {"audit": {"suites": ["power_sum"], "power_sum_draws": 2.5}}),
    ], ids=["d", "node_budget", "search_cap", "k", "j_grid", "count", "instances", "seed",
            "power_sum_draws"])
    def test_non_integral_integers_rejected(self, tmp_path, capsys, command, extra):
        cfg = write_config(tmp_path, "b.json", dyadic_config(**extra))
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "must be an integer" in err

    @pytest.mark.parametrize("case", ["utf16-config", "directory-config", "utf16-table",
                                      "not-json"])
    def test_unreadable_files(self, tmp_path, capsys, case):
        utf16 = b"\xff\xfe" + json.dumps(dyadic_config()).encode("utf-16-le")
        (tmp_path / "utf16.json").write_bytes(utf16)
        (tmp_path / "broken.json").write_text('{"schema": 1,', encoding="utf-8")
        (tmp_path / "utf16.txt").write_bytes(b"\xff\xfe" + "1 0.0\n".encode("utf-16-le"))
        config, needle = {
            "utf16-config": (str(tmp_path / "utf16.json"), "config file unreadable"),
            "directory-config": (str(tmp_path), "config file unreadable"),
            "utf16-table": (write_config(tmp_path, "t.json", dyadic_config(
                **{"lambda": {"family": "tabulated", "path": "utf16.txt"}})), "sequence rejected"),
            "not-json": (str(tmp_path / "broken.json"), "config is not valid JSON"),
        }[case]
        assert main(["count", "--config", config]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("target, needle", [
        ("absent/x.csv", "output directory not found"),
        (".", "output path is a directory"),
    ], ids=["absent-parent", "directory"])
    def test_output_path_checked_before_counting(self, tmp_path, capsys, monkeypatch,
                                                 where, target, needle):
        def no_counting(*args, **kwargs):
            raise AssertionError("counted before the output path was checked")

        monkeypatch.setattr(cli, "info_complexity", no_counting)
        out = str(tmp_path / target)
        if where == "flag":
            cfg, argv = write_config(tmp_path, "b.json", dyadic_config()), ["--out", out]
        else:
            cfg, argv = write_config(tmp_path, "b.json", dyadic_config(output={"path": out})), []
        assert main(["count", "--config", cfg, *argv]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err

    def test_integral_floats_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config(
            queries={"E": [0.5 * math.log(5.0)], "d": [2.0]}, limits={"node_budget": 1e8}))
        assert main(["count", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[1:5] == ["2", "3", "2", "6"]

    @pytest.mark.parametrize("command, extra, needle", [
        ("audit", {"audit": {"suites": "sandwich"}}, "audit suites must be a list"),
        ("audit", {"audit": {"suites": ["summability"], "c_list": ["x"]}}, "audit c must be a number"),
        ("audit", {"audit": {"suites": ["summability"], "c_list": [0]}}, "positive and finite"),
        ("audit", {"audit": {"suites": ["summability"], "c_list": "2"}}, "c_list must be a list"),
        ("classify", {"probes": {"j_grid": [1]}, "notion": {"kind": "wt"}}, "probe j values must be >= 2"),
    ], ids=["suites-string", "c_list-text", "c_list-zero", "c_list-string", "j_grid-one"])
    def test_audit_and_probe_values_rejected(self, tmp_path, capsys, command, extra, needle):
        cfg = write_config(tmp_path, "b.json", dyadic_config(**extra))
        assert main([command, "--config", cfg, "--format", "json"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err

    @pytest.mark.parametrize("command, extra, needle", [
        ("sweep", {"queries": {"E": [1.0], "d": [3, True]}}, "dimension must be an integer, got True"),
        ("sweep", {"queries": {"E": [1.0], "d": [False]}}, "dimension must be an integer, got False"),
        ("sweep", {"queries": {"E": [True], "d": [1]}}, "E value must be a number, got True"),
        ("topk", {"k": True}, "k must be an integer, got True"),
        ("sweep", {"limits": {"node_budget": True}}, "node_budget must be an integer, got True"),
        ("sweep", {"lambda": {"family": "power_law", "a": True}},
         "a must be a positive finite number, got True"),
    ], ids=["d-true", "d-false", "E", "k", "node_budget", "a"])
    def test_booleans_are_not_numbers(self, tmp_path, capsys, command, extra, needle):
        cfg = write_config(tmp_path, "b.json", dyadic_config(**extra))
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err

    NO_E_GRID = {"schema": 1, "lambda": {"family": "power_law", "a": 2.0},
                 "gamma": {"family": "exp_power", "alpha": 1.0, "beta": 1.0},
                 "queries": {"d": [3]}, "k": 3, "notion": {"kind": "exp_wt"},
                 "audit": {"suites": ["summability"]}}

    @pytest.mark.parametrize("command", ["topk", "classify", "audit"])
    def test_commands_without_E_need_no_E_grid(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "b.json", self.NO_E_GRID)
        fmt = ["--format", "json"] if command == "classify" else []
        assert main([command, "--config", cfg, *fmt]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_topk_without_E_grid_uses_queries_d(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", self.NO_E_GRID)
        assert main(["topk", "--config", cfg]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["3", "1"], ["3", "2"], ["3", "3"]]

    @pytest.mark.parametrize("command", ["count", "sweep"])
    def test_count_and_sweep_require_E_grid(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "b.json", self.NO_E_GRID)
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: count/sweep require an E grid\n"

    def test_threads_flag_removed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", dyadic_config())
        with pytest.raises(SystemExit) as exc:
            main(["count", "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2


def _float_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_CELLS = {
    "int": st.integers(-2**70, 2**70),
    "float": st.integers(0, 2**64 - 1).map(_float_from_bits)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    "bool": st.booleans(),
    "str": st.text(st.sampled_from('ab ,"\n\r%'), max_size=5),
}
_CELLS["mixed"] = st.one_of(*_CELLS.values())


@st.composite
def reports(draw):
    """Columns of equal length, each of one kind of cell (or of mixed cells)."""
    names = draw(st.lists(st.text(st.sampled_from('ab ,"\n%d'), min_size=1, max_size=3),
                          min_size=2, max_size=5, unique=True))
    n = draw(st.integers(0, 8))
    return {name: draw(st.lists(_CELLS[draw(st.sampled_from(sorted(_CELLS)))],
                                min_size=n, max_size=n)) for name in names}


#: Small pools, so that cells repeat: the signed zeros and smallest subnormals,
#: both infinities, the one NaN object math.nan and fresh NaN objects, and
#: NaNs of another sign or payload, whose bits differ but whose text does not.
_REPEATING = {
    "float": st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, 0.1, 2.5, 1e300,
                              math.nan, -math.nan, _float_from_bits(0x7FF0000000000001)])
    | st.builds(float, st.just("nan")),
    "int": st.sampled_from([0, 1, -1, 7, 2**70]),
    "bool": st.booleans(),
    "str": st.sampled_from(["", "x", "a,b", 'q"t']),
}
_REPEATING["mixed"] = st.one_of(*_REPEATING.values())


@st.composite
def repeating_reports(draw):
    """Columns of up to 60 cells drawn from ``_REPEATING``, each of one kind
    (or of mixed cells)."""
    names = draw(st.lists(st.sampled_from(["a", "b,", "c", "d"]), min_size=2, max_size=4,
                          unique=True))
    n = draw(st.integers(0, 60))
    return {name: draw(st.lists(_REPEATING[draw(st.sampled_from(sorted(_REPEATING)))],
                                min_size=n, max_size=n)) for name in names}


class TestCsvColumns:
    """One column, twice over, through the report writer against csv.writer
    over ``_cell`` values."""

    def check(self, column):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [("a", "b")] + [(_cell(v), _cell(v)) for v in column])
        assert _write_rows({"a": column, "b": column}, "csv", {}) == buf.getvalue()

    @given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e300, math.inf, -math.inf]),
                    min_size=1))
    def test_float_columns(self, column):
        self.check(column)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1))
    def test_floats_from_bit_patterns(self, bits):
        self.check(list(map(_float_from_bits, bits)))

    @pytest.mark.parametrize("rows", [31, 32])
    def test_repeating_floats_either_side_of_the_dedupe(self, rows):
        # Float columns are formatted cell by cell at every length; 31 and 32
        # rows straddle the length from which the writer once formatted each
        # bit pattern once.  Both keep the sign of -0.0 and spell nan and inf.
        cells = [0.0, -0.0, math.nan, 0.1, -math.inf]
        column = [cells[i % len(cells)] for i in range(rows)]
        self.check(column)
        for got, v in zip(_write_rows({"a": column}, "json", {}).split('"a": ')[1:], column):
            assert got.split("\n")[0] == _dump_json(v)

    @pytest.mark.parametrize("column", [
        [1, 2, 10**30], ["", "budget_exceeded", "a,b", 'q"t'], [1, "", 3],
        [True, False], [True, 1, 0.5, ""], [0.5, ""], [math.inf, 1], [],
    ], ids=["int", "str", "int-str", "bool", "mixed", "float-str", "float-int", "empty"])
    def test_other_columns(self, column):
        self.check(column)


class TestReportWriter:
    """The column-wise writer against a row-at-a-time rendering of the same cells."""

    @given(reports() | repeating_reports())
    def test_csv_matches_csv_writer(self, cols):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows(zip(*([_cell(v) for v in col] for col in cols.values())))
        assert _write_rows(cols, "csv", {}) == buf.getvalue()

    @given(reports() | repeating_reports())
    def test_json_matches_dump_json(self, cols):
        rows = [dict(zip(cols, row)) for row in zip(*cols.values())]
        head = {"schema": 1, "command": "x"}
        expected = _dump_json({**head, "rows": rows, "passed": True}) + "\n"
        assert _write_rows(cols, "json", head, passed=True) == expected

    # Few distinct costs, so that eigenvalues tie within and across levels.
    _TIED = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TIED, min_size=2, max_size=12).map(sorted),
           st.lists(_TIED, min_size=1, max_size=5).map(sorted),
           st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
           st.integers(1, 60))
    # Fewer positive eigenvalues than K: the costs are padded with inf.
    @example([0.0, 1.0], [0.5], [3, 2], 20)
    # 12**4 zero costs at d = 4 exceed the candidate cap.
    @example([0.0] * 12 + [1.0], [0.0] * 4, [4, 1], 5)
    def test_topk_matches_rows_from_top_eigenvalues(self, lam, gam, ds, k):
        # The top-K report against rows built one at a time from
        # top_eigenvalues, through csv.writer over _cell and _dump_json.
        seqs = EigenSeq(Tabulated(tuple(lam))), WeightSeq(Tabulated(tuple(gam)))
        rows = []
        for d in sorted(ds):
            try:
                costs = top_eigenvalues(*seqs, d, k)
                rows += [(d, r, c, math.exp(-c), "") for r, c in enumerate(costs, 1)]
            except BudgetExceeded:
                rows.append((d, "", "", "", "budget_exceeded"))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [TOPK_COLUMNS] + [list(map(_cell, row)) for row in rows])
        head = {"schema": 1, "command": "topk", "lambda": seqs[0].descriptor(),
                "gamma": seqs[1].descriptor()}
        expected = {"csv": buf.getvalue(), "json": _dump_json(
            {**head, "rows": [dict(zip(TOPK_COLUMNS, row)) for row in rows]}) + "\n"}
        code = EXIT_RUNTIME if any(row[4] for row in rows) else EXIT_OK
        with tempfile.TemporaryDirectory() as tmp:
            cfg = write_config(Path(tmp), "t.json", {
                "schema": 1, "lambda": {"family": "tabulated", "values": lam},
                "gamma": {"family": "tabulated", "values": gam}, "queries": {"d": ds}, "k": k})
            for out_format, text in expected.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["topk", "--config", cfg, "--format", out_format]) == code
                assert out.getvalue() == text

    def test_topk_csv_and_json_carry_the_same_cells(self, tmp_path, capsys):
        # 50 zero costs, then distinct ones: d = 1 has 2000 rows, d = 2 a full
        # tie class of 2500 zeros, and d = 4 overruns the candidate budget.
        values = [0.0] * 50 + [math.log(j) for j in range(51, 3000)]
        cfg = write_config(tmp_path, "t.json", dyadic_config(
            **{"lambda": {"family": "tabulated", "values": values},
               "gamma": {"family": "constant_one"},
               "queries": {"d": [4, 1, 2]}, "k": 2000}))
        assert main(["topk", "--config", cfg]) == EXIT_RUNTIME
        csv_rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert main(["topk", "--config", cfg, "--format", "json"]) == EXIT_RUNTIME
        doc = json.loads(capsys.readouterr().out, parse_int=str, parse_float=str)
        assert doc["rows"] == csv_rows
        assert [r["d"] for r in csv_rows].count("1") == 2000
        assert [r["d"] for r in csv_rows].count("2") == 2500
        assert csv_rows[-1] == {"d": "4", "rank": "", "cost": "", "eigenvalue": "",
                                "error": "budget_exceeded"}


class TestTabulatedFile:
    def test_table_from_path(self, tmp_path, capsys):
        table = tmp_path / "lam.txt"
        table.write_text("# un-normalized double-exp table\n" + "".join(
            f"{j} {math.exp(j)!r}\n" for j in range(1, 13)))
        cfg = write_config(tmp_path, "f.json", dyadic_config(
            **{"lambda": {"family": "tabulated", "path": "lam.txt"},
               "queries": {"E": [100.0], "d": [1]}}))
        assert main(["count", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        row = out[1].split(",")
        assert row[2] == "5"  # j_eps column
